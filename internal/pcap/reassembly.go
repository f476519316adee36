package pcap

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Stream is one direction of a reassembled TCP conversation: a contiguous
// byte stream plus enough timing information to attribute byte offsets back
// to capture timestamps.
type Stream struct {
	Key       FlowKey
	Data      []byte
	FirstSeen time.Time
	LastSeen  time.Time

	marks []streamMark
}

type streamMark struct {
	offset int
	ts     time.Time
}

// TimeAt returns the capture timestamp of the segment containing byte
// offset off, falling back to FirstSeen for out-of-range offsets.
func (s *Stream) TimeAt(off int) time.Time {
	if len(s.marks) == 0 {
		return s.FirstSeen
	}
	idx := sort.Search(len(s.marks), func(i int) bool { return s.marks[i].offset > off }) - 1
	if idx < 0 {
		idx = 0
	}
	return s.marks[idx].ts
}

// segment is a raw TCP payload pending reassembly. The bytes live in the
// owning Assembler's payload slab as [off:end) so that feeding never
// allocates per segment; offsets stay valid across slab growth.
type segment struct {
	relSeq   int64 // sequence relative to the ISN
	off, end int   // payload byte range in Assembler.slab
	ts       time.Time
}

// span is a half-open relative-sequence interval [start, end) covered by a
// single previously fed segment.
type span struct {
	start, end int64
}

type flowState struct {
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

func (st *flowState) reset() {
	st.key = FlowKey{}
	st.isn = 0
	st.sawISN = false
	st.segs = st.segs[:0]
	st.sorted = true
	st.covered = st.covered[:0]
	st.hasData = false
	st.tsFirst = time.Time{}
	st.tsLast = time.Time{}
}

// duplicate reports whether [start, end) is fully contained in a single
// previously fed segment. Only single-segment containment is safe to drop:
// a segment covered only by the union of earlier segments can still
// contribute bytes when an earlier segment is itself trimmed.
func (st *flowState) duplicate(start, end int64) bool {
	// Last covered span with span.start <= start; ends increase with
	// starts, so it has the largest end among candidates.
	idx := sort.Search(len(st.covered), func(i int) bool { return st.covered[i].start > start }) - 1
	return idx >= 0 && st.covered[idx].end >= end
}

// insertSpan records [start, end) in the covered set, pruning any spans the
// new one contains so both starts and ends stay strictly increasing.
func (st *flowState) insertSpan(start, end int64) {
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
func (st *flowState) ensureSorted() {
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

// Assembler reconstructs per-direction TCP byte streams from frames fed in
// capture order. It tolerates out-of-order delivery, retransmissions, and
// overlapping segments (first copy wins). It does not track TCP state
// machines beyond the ISN: synthetic and well-formed captures are the
// target, mirroring the paper's use of pre-recorded traces.
//
// All reassembly products — segment payloads, Stream.Data, timing marks,
// and the Stream structs themselves — are carved from arenas owned by the
// Assembler. Streams returned by Streams/StreamsInto are therefore only
// valid until the Assembler is Released or fed again after a Streams call.
type Assembler struct {
	flows map[FlowKey]*flowState
	order []FlowKey // insertion order for deterministic output

	slab     []byte // payload arena shared by every segment
	flowFree []*flowState

	// Product arenas, rebuilt by each StreamsInto call.
	streams []Stream
	data    []byte
	marks   []streamMark
}

// NewAssembler returns an empty Assembler.
func NewAssembler() *Assembler {
	return &Assembler{flows: make(map[FlowKey]*flowState)}
}

var assemblerPool = sync.Pool{New: func() any { return NewAssembler() }}

// GetAssembler returns a reset Assembler from the package pool. Pair it
// with Release once every Stream derived from it has been consumed.
func GetAssembler() *Assembler {
	return assemblerPool.Get().(*Assembler)
}

// Release resets the Assembler and returns it to the package pool. Streams
// previously returned by this Assembler alias its arenas and must not be
// used afterwards.
func (a *Assembler) Release() {
	a.Reset()
	assemblerPool.Put(a)
}

// Reset discards all fed flows and reassembly products while retaining
// arena capacity for reuse.
func (a *Assembler) Reset() {
	for _, key := range a.order {
		st := a.flows[key]
		st.reset()
		a.flowFree = append(a.flowFree, st)
	}
	clear(a.flows)
	a.order = a.order[:0]
	a.slab = a.slab[:0]
	a.streams = a.streams[:0]
	a.data = a.data[:0]
	a.marks = a.marks[:0]
}

func (a *Assembler) newFlow(key FlowKey) *flowState {
	var st *flowState
	if n := len(a.flowFree); n > 0 {
		st = a.flowFree[n-1]
		a.flowFree[n-1] = nil
		a.flowFree = a.flowFree[:n-1]
	} else {
		st = &flowState{sorted: true}
	}
	st.key = key
	return st
}

// Feed ingests one decoded frame with its capture timestamp. Payload bytes
// are appended to the assembler's slab (one amortized copy, no per-segment
// allocation); frames whose payload is fully contained in a single earlier
// segment are duplicates under first-copy-wins and are dropped here rather
// than retained until Streams.
func (a *Assembler) Feed(f *Frame, ts time.Time) {
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

// Streams finalizes reassembly and returns one Stream per flow direction in
// first-seen order. Gaps in the sequence space are skipped (the stream
// continues at the next available segment), matching what offline forensic
// tooling does with lossy captures. The returned streams alias the
// Assembler's arenas: they stay valid until the next StreamsInto/Reset/
// Release on this Assembler.
func (a *Assembler) Streams() []*Stream {
	return a.StreamsInto(nil)
}

// StreamsInto appends the reassembled streams to dst and returns it,
// carving Stream structs, Data, and timing marks from reused arenas so a
// warm Assembler produces streams without allocating.
//
//dynalint:hotpath
func (a *Assembler) StreamsInto(dst []*Stream) []*Stream {
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
		a.marks = make([]streamMark, 0, nSegs)
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
			a.marks = append(a.marks, streamMark{offset: len(a.data) - dataStart, ts: seg.ts})
			a.data = append(a.data, data...)
			nextSeq = end
		}
		stream.Data = a.data[dataStart:len(a.data):len(a.data)]
		stream.marks = a.marks[markStart:len(a.marks):len(a.marks)]
		dst = append(dst, stream) //dynalint:ignore hotalloc capacity for every stream is ensured by the grow block above
	}
	return dst
}

// AssembleStreams is a convenience that decodes every packet (skipping
// non-TCP frames) and returns the reassembled streams. The backing
// Assembler is garbage-collected, never pooled, so the streams live as
// long as the caller keeps them.
func AssembleStreams(pkts []Packet) []*Stream {
	tb := capTrace.Load()
	var t0 time.Time
	if tb != nil {
		t0 = traceClock()
	}
	out := feedAll(NewAssembler(), pkts).Streams()
	if tb != nil {
		tb.t.ObserveStage(tb.stage, traceClock().Sub(t0).Seconds())
	}
	return out
}

// AssembleStreamsInto is the pooled counterpart of AssembleStreams: it
// draws an Assembler from the package pool, feeds every packet, and
// appends the reassembled streams to dst. The caller must Release the
// returned Assembler once it is done with the streams (they alias its
// arenas).
//
//dynalint:hotpath
func AssembleStreamsInto(dst []*Stream, pkts []Packet) ([]*Stream, *Assembler) {
	tb := capTrace.Load()
	var t0 time.Time
	if tb != nil {
		t0 = traceClock()
	}
	a := GetAssembler()
	out := feedAll(a, pkts).StreamsInto(dst)
	if tb != nil {
		tb.t.ObserveStage(tb.stage, traceClock().Sub(t0).Seconds())
	}
	return out, a
}

func feedAll(a *Assembler, pkts []Packet) *Assembler {
	// Frame bytes bound the payload bytes Feed appends, so a cold
	// assembler makes its payload arena once here instead of regrowing it
	// through the capture; a warm one already has the room.
	frameBytes := 0
	for i := range pkts {
		frameBytes += len(pkts[i].Data)
	}
	a.slab = slices.Grow(a.slab, frameBytes)
	var f Frame
	for i := range pkts {
		if err := DecodeFrameInto(&f, pkts[i].Data); err != nil {
			continue // non-IP/TCP frame: irrelevant to HTTP analytics
		}
		a.Feed(&f, pkts[i].Timestamp)
	}
	return a
}
