package pcap

// The capture path as it stood before the conversation-scoped engine, kept
// as the oracle the engine is tested against (the redirect_ref_test.go
// pattern): a reader that makes one buffer per packet, and a whole-capture
// assembler that keeps every flow until the capture ends — one payload
// slab, one data arena, streams keyed by 4-tuple for the whole capture (so
// a reused tuple is one flow; the engine differs there on purpose). The
// Ref* names are exported to the package's external tests.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// RefReadAllAuto is ReadAllAuto as it stood.
func RefReadAllAuto(r io.Reader) ([]Packet, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("pcap: read magic: %w", err)
	}
	next := refClassicNext
	var ng ngReader // carries the byte order and interfaces; its window is unused
	if binary.LittleEndian.Uint32(magic) == blockSHB {
		var head [8]byte
		if _, err := io.ReadFull(br, head[:]); err != nil {
			return nil, fmt.Errorf("pcapng: read section header: %w", err)
		}
		if err := refSection(br, &ng, head); err != nil {
			return nil, err
		}
		next = refNGNext
	} else if err := refGlobalHeader(br, &ng); err != nil {
		return nil, err
	}
	var pkts []Packet
	for {
		p, err := next(br, &ng)
		if errors.Is(err, io.EOF) {
			return pkts, nil
		}
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, p)
	}
}

func refGlobalHeader(r io.Reader, ng *ngReader) error {
	var hdr [globalHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("pcap: read global header: %w", err)
	}
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case magicLE:
		ng.order = binary.LittleEndian
	case magicBE:
		ng.order = binary.BigEndian
	default:
		return ErrBadMagic
	}
	if linkType := ng.order.Uint32(hdr[20:]); linkType != LinkTypeEthernet {
		return fmt.Errorf("pcap: unsupported link type %d", linkType)
	}
	return nil
}

// refClassicNext trusts the record's length field, as the old reader did
// up to the file's own snaplen (not checked here: the oracle only reads
// captures the Writer wrote).
func refClassicNext(r *bufio.Reader, ng *ngReader) (Packet, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: read record header: %w", err)
	}
	data := make([]byte, ng.order.Uint32(hdr[8:]))
	if _, err := io.ReadFull(r, data); err != nil {
		return Packet{}, fmt.Errorf("pcap: read record body: %w", err)
	}
	return Packet{
		Timestamp: time.Unix(int64(ng.order.Uint32(hdr[0:])), int64(ng.order.Uint32(hdr[4:]))*1000).UTC(),
		Data:      data,
	}, nil
}

// refSection reads a section header block from the byte-order magic on;
// head holds the 8 bytes before it.
func refSection(r *bufio.Reader, ng *ngReader, head [8]byte) error {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("pcapng: read section header: %w", err)
	}
	switch binary.LittleEndian.Uint32(magic[:]) {
	case byteOrderMagic:
		ng.order = binary.LittleEndian
	case 0x4D3C2B1A:
		ng.order = binary.BigEndian
	default:
		return fmt.Errorf("pcapng: bad byte-order magic")
	}
	totalLen := ng.order.Uint32(head[4:])
	if totalLen < 28 || totalLen%4 != 0 {
		return fmt.Errorf("pcapng: bad section header length %d", totalLen)
	}
	if _, err := io.CopyN(io.Discard, r, int64(totalLen-12)); err != nil {
		return fmt.Errorf("pcapng: section header body: %w", err)
	}
	ng.ifaces = ng.ifaces[:0]
	return nil
}

func refNGNext(r *bufio.Reader, ng *ngReader) (Packet, error) {
	for {
		var head [8]byte
		if _, err := io.ReadFull(r, head[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return Packet{}, io.EOF
			}
			return Packet{}, fmt.Errorf("pcapng: read block header: %w", err)
		}
		blockType := ng.order.Uint32(head[0:])
		if blockType == blockSHB {
			if err := refSection(r, ng, head); err != nil {
				return Packet{}, err
			}
			continue
		}
		totalLen := ng.order.Uint32(head[4:])
		if totalLen < 12 || totalLen%4 != 0 {
			return Packet{}, fmt.Errorf("pcapng: bad block length %d", totalLen)
		}
		body := make([]byte, totalLen-12)
		if _, err := io.ReadFull(r, body); err != nil {
			return Packet{}, fmt.Errorf("pcapng: block body: %w", err)
		}
		var trail [4]byte
		if _, err := io.ReadFull(r, trail[:]); err != nil {
			return Packet{}, fmt.Errorf("pcapng: block trailer: %w", err)
		}
		if ng.order.Uint32(trail[:]) != totalLen {
			return Packet{}, fmt.Errorf("pcapng: trailer length mismatch")
		}
		var pkt Packet
		var ok bool
		var err error
		switch blockType {
		case blockIDB:
			err = ng.parseIDB(body)
		case blockEPB:
			pkt, ok, err = ng.parseEPB(body)
		case blockSPB:
			pkt, ok, err = ng.parseSPB(body)
		}
		if err != nil {
			return Packet{}, err
		}
		if ok {
			return pkt, nil
		}
	}
}

// RefAssembleStreams is AssembleStreams as it stood: every packet decoded
// and fed to one whole-capture assembler, one Stream per flow direction in
// first-seen order (Conv is left zero: the old streams paired by key).
func RefAssembleStreams(pkts []Packet) []*Stream {
	a := &refAssembler{flows: make(map[FlowKey]*refFlow)}
	frameBytes := 0
	for i := range pkts {
		frameBytes += len(pkts[i].Data)
	}
	a.slab = slices.Grow(a.slab, frameBytes)
	var f Frame
	for i := range pkts {
		if err := DecodeFrameInto(&f, pkts[i].Data); err != nil {
			continue
		}
		a.Feed(&f, pkts[i].Timestamp)
	}
	return a.StreamsInto(nil)
}

type refFlow struct {
	key    FlowKey
	isn    uint32
	sawISN bool
	segs   []segment
	// sorted tracks whether segs is already nondecreasing by relSeq, so
	// the common in-order capture skips the per-Streams sort entirely.
	sorted bool
	// covered holds containment-pruned single-segment spans: starts and
	// ends both strictly increasing. A newly fed segment fully inside one
	// of these spans can never contribute bytes (first copy wins) and is
	// dropped at feed time instead of being kept alive until Streams.
	covered []span
	// hasData/tsFirst/tsLast fold the capture-timestamp envelope over
	// every payload-bearing frame — including dropped duplicates — so
	// FirstSeen/LastSeen match the keep-everything behavior exactly.
	hasData bool
	tsFirst time.Time
	tsLast  time.Time
}

// duplicate reports whether [start, end) is fully contained in a single
// previously fed segment. Only single-segment containment is safe to drop:
// a segment covered only by the union of earlier segments can still
// contribute bytes when an earlier segment is itself trimmed.
func (st *refFlow) duplicate(start, end int64) bool {
	// Last covered span with span.start <= start; ends increase with
	// starts, so it has the largest end among candidates.
	idx := sort.Search(len(st.covered), func(i int) bool { return st.covered[i].start > start }) - 1
	return idx >= 0 && st.covered[idx].end >= end
}

// insertSpan records [start, end) in the covered set, pruning any spans the
// new one contains so both starts and ends stay strictly increasing.
func (st *refFlow) insertSpan(start, end int64) {
	lo := sort.Search(len(st.covered), func(i int) bool { return st.covered[i].start >= start })
	hi := lo
	for hi < len(st.covered) && st.covered[hi].end <= end {
		hi++
	}
	if lo == hi {
		st.covered = append(st.covered, span{})
		copy(st.covered[lo+1:], st.covered[lo:])
		st.covered[lo] = span{start: start, end: end}
		return
	}
	st.covered[lo] = span{start: start, end: end}
	st.covered = append(st.covered[:lo+1], st.covered[hi:]...)
}

// ensureSorted restores relSeq order with an in-place stable insertion
// sort: zero-alloc (sort.SliceStable boxes its arguments), stable so the
// first-fed copy of an equal-seq retransmission still wins, and O(n +
// inversions) on the nearly-in-order captures that reach it.
func (st *refFlow) ensureSorted() {
	if st.sorted {
		return
	}
	segs := st.segs
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j].relSeq < segs[j-1].relSeq; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
	st.sorted = true
}

// refAssembler reconstructs per-direction TCP byte streams from frames fed in
// capture order. It tolerates out-of-order delivery, retransmissions, and
// overlapping segments (first copy wins). It does not track TCP state
// machines beyond the ISN: synthetic and well-formed captures are the
// target, mirroring the paper's use of pre-recorded traces.
//
// All reassembly products — segment payloads, Stream.Data, timing marks,
// and the Stream structs themselves — are carved from arenas owned by the
// refAssembler. Streams returned by Streams/StreamsInto are therefore only
// valid until the refAssembler is Released or fed again after a Streams call.
type refAssembler struct {
	flows map[FlowKey]*refFlow
	order []FlowKey // insertion order for deterministic output

	slab []byte // payload arena shared by every segment

	// Product arenas, rebuilt by each StreamsInto call.
	streams []Stream
	data    []byte
	marks   []segment
}

func (a *refAssembler) newFlow(key FlowKey) *refFlow {
	return &refFlow{key: key, sorted: true}
}

// Feed ingests one decoded frame with its capture timestamp. Payload bytes
// are appended to the assembler's slab (one amortized copy, no per-segment
// allocation); frames whose payload is fully contained in a single earlier
// segment are duplicates under first-copy-wins and are dropped here rather
// than retained until Streams.
func (a *refAssembler) Feed(f *Frame, ts time.Time) {
	key := f.Key()
	st, ok := a.flows[key]
	if !ok {
		st = a.newFlow(key)
		a.flows[key] = st
		a.order = append(a.order, key)
	}
	if f.Flags&FlagSYN != 0 && !st.sawISN {
		st.isn = f.Seq + 1 // data begins after SYN consumes one sequence number
		st.sawISN = true
	}
	if len(f.Payload) == 0 {
		return
	}
	if !st.sawISN {
		// Mid-stream capture: treat the first data seq as the origin.
		st.isn = f.Seq
		st.sawISN = true
	}
	if !st.hasData {
		st.hasData = true
		st.tsFirst = ts
		st.tsLast = ts
	} else {
		if ts.Before(st.tsFirst) {
			st.tsFirst = ts
		}
		if ts.After(st.tsLast) {
			st.tsLast = ts
		}
	}
	rel := int64(int32(f.Seq - st.isn)) // handles 32-bit wraparound locally
	end := rel + int64(len(f.Payload))
	if st.duplicate(rel, end) {
		return
	}
	st.insertSpan(rel, end)
	off := len(a.slab)
	a.slab = append(a.slab, f.Payload...)
	if n := len(st.segs); n > 0 && rel < st.segs[n-1].relSeq {
		st.sorted = false
	}
	st.segs = append(st.segs, segment{relSeq: rel, off: off, end: off + len(f.Payload), ts: ts})
}

// StreamsInto appends the reassembled streams to dst and returns it,
// carving Stream structs, Data, and timing marks from reused arenas so a
// warm refAssembler produces streams without allocating.
func (a *refAssembler) StreamsInto(dst []*Stream) []*Stream {
	nFlows, nSegs := 0, 0
	for _, key := range a.order {
		st := a.flows[key]
		if len(st.segs) > 0 {
			nFlows++
			nSegs += len(st.segs)
		}
	}
	// Pre-size every arena so the carving appends below never reallocate:
	// pointers into a.streams and slices over a.data/a.marks stay valid.
	if cap(a.streams) < nFlows {
		a.streams = make([]Stream, 0, nFlows)
	}
	if cap(a.data) < len(a.slab) {
		a.data = make([]byte, 0, cap(a.slab))
	}
	if cap(a.marks) < nSegs {
		a.marks = make([]segment, 0, nSegs)
	}
	if cap(dst)-len(dst) < nFlows {
		grown := make([]*Stream, len(dst), len(dst)+nFlows)
		copy(grown, dst)
		dst = grown
	}
	a.streams = a.streams[:0]
	a.data = a.data[:0]
	a.marks = a.marks[:0]

	for _, key := range a.order {
		st := a.flows[key]
		if len(st.segs) == 0 {
			continue
		}
		st.ensureSorted()

		a.streams = append(a.streams, Stream{Key: key, FirstSeen: st.tsFirst, LastSeen: st.tsLast})
		stream := &a.streams[len(a.streams)-1]
		dataStart := len(a.data)
		markStart := len(a.marks)
		nextSeq := st.segs[0].relSeq
		for i := range st.segs {
			seg := &st.segs[i]
			end := seg.relSeq + int64(seg.end-seg.off)
			if end <= nextSeq {
				continue // full retransmission
			}
			data := a.slab[seg.off:seg.end]
			if seg.relSeq < nextSeq {
				data = data[nextSeq-seg.relSeq:] // partial overlap
			}
			a.marks = append(a.marks, segment{off: len(a.data) - dataStart, ts: seg.ts})
			a.data = append(a.data, data...)
			nextSeq = end
		}
		stream.Data = a.data[dataStart:len(a.data):len(a.data)]
		stream.marks = a.marks[markStart:len(a.marks):len(a.marks)]
		dst = append(dst, stream)
	}
	return dst
}
