package pcap

import (
	"slices"
	"sort"
	"time"

	"dynaminer/internal/obs"
)

// Stream is one direction of a reassembled TCP conversation: a contiguous
// byte stream plus enough timing information to attribute byte offsets back
// to capture timestamps.
type Stream struct {
	Key FlowKey
	// Conv names the stream's conversation — one TCP connection — within
	// its capture: the first-seen ordinal of the connection's first
	// payload-bearing direction. Both directions carry it, and a later
	// connection on the same ports carries another.
	Conv      int
	Data      []byte
	FirstSeen time.Time
	LastSeen  time.Time

	ord   int       // first-seen ordinal of this direction within the capture
	marks []segment // the segments Data was made of: off is an offset into Data
}

// TimeAt returns the capture timestamp of the segment containing byte
// offset off, falling back to FirstSeen for out-of-range offsets.
func (s *Stream) TimeAt(off int) time.Time {
	if len(s.marks) == 0 {
		return s.FirstSeen
	}
	idx := sort.Search(len(s.marks), func(i int) bool { return s.marks[i].off > off }) - 1
	if idx < 0 {
		idx = 0
	}
	return s.marks[idx].ts
}

// clone copies s out of the conversation buffers it aliases.
func (s *Stream) clone() *Stream {
	c := *s
	c.Data = slices.Clone(s.Data)
	c.marks = slices.Clone(s.marks)
	return &c
}

// segment is a TCP payload kept for reassembly: bytes [off, end) of its
// direction's buffer.
type segment struct {
	relSeq   int64 // sequence relative to the ISN
	off, end int
	ts       time.Time
}

// span is a half-open relative-sequence interval [start, end) covered by a
// single previously fed segment.
type span struct {
	start, end int64
}

// flowState is one direction of an open conversation.
type flowState struct {
	seen   bool // a frame of this direction has arrived
	ord    int  // its first-seen ordinal
	isn    uint32
	sawISN bool
	sawFIN bool
	finSeq uint32 // sequence number of the FIN itself
	// buf holds the payload of every kept segment in arrival order, segs
	// where each one sits in it.
	buf  []byte
	segs []segment
	// inOrder holds while every kept segment begins at or after the end
	// (next) of the one kept before it; buf is then the reassembled stream
	// as it stands and the close step copies nothing.
	inOrder bool
	next    int64
	// covered holds containment-pruned single-segment spans: starts and
	// ends both strictly increasing. A newly fed segment fully inside one
	// of these spans can never contribute bytes (first copy wins) and is
	// dropped at feed time.
	covered []span
	// reach is the end of the bytes that have arrived without a gap from
	// the stream's origin: every byte of [0, reach) is in buf.
	reach int64
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
func (st *flowState) duplicate(start, end int64) bool {
	// Last covered span with span.start <= start; ends increase with
	// starts, so it has the largest end among candidates.
	idx := sort.Search(len(st.covered), func(i int) bool { return st.covered[i].start > start }) - 1
	return idx >= 0 && st.covered[idx].end >= end
}

// insertSpan records [start, end) in the covered set, pruning any spans the
// new one contains so both starts and ends stay strictly increasing, and
// advances reach over the gap-free prefix.
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
	} else {
		st.covered[lo] = span{start: start, end: end}
		st.covered = append(st.covered[:lo+1], st.covered[hi:]...)
	}
	if start <= st.reach && end > st.reach {
		// Spans before lo end below end; the ones after it join the prefix
		// for as long as each starts inside it.
		st.reach = end
		for _, sp := range st.covered[lo+1:] {
			if sp.start > st.reach {
				break
			}
			st.reach = max(st.reach, sp.end)
		}
	}
}

// sortSegs restores relSeq order with an in-place stable insertion sort:
// zero-alloc (sort.SliceStable boxes its arguments), stable so the
// first-fed copy of an equal-seq retransmission still wins, and O(n +
// inversions) on the nearly-in-order captures that reach it.
func (st *flowState) sortSegs() {
	segs := st.segs
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j].relSeq < segs[j-1].relSeq; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
}

// reopens reports whether a SYN announcing initial data sequence isn opens
// a new connection rather than repeating the SYN that opened this one: the
// direction already carried payload, or was opened at another sequence.
func (st *flowState) reopens(isn uint32) bool {
	return st.hasData || (st.sawISN && st.isn != isn)
}

// finished reports whether the direction has sent its FIN and every byte
// before the FIN has arrived.
func (st *flowState) finished() bool {
	return st.sawFIN && (!st.sawISN || st.reach >= int64(int32(st.finSeq-st.isn)))
}

// conversation is one open TCP connection: dirs[0] is the direction sent by
// the lower endpoint of key, dirs[1] its reverse.
type conversation struct {
	key   FlowKey   // as FlowKey.Canonical gives it
	ord   int       // first-seen ordinal of its first frame's direction; -1 once recycled
	first time.Time // capture time of its first frame
	dirs  [2]flowState
	// What the sink is shown of dirs at close: streams, and under them the
	// assembled bytes of a direction whose buf is not already its stream.
	streams [2]Stream
	carved  [2][]byte
	spent   time.Duration // what Feed has taken on c so far; zero unless a tracer is attached
}

// Assembler reconstructs TCP byte streams from frames fed in capture order,
// one conversation at a time. It tolerates out-of-order delivery,
// retransmissions, and overlapping segments (first copy wins). It does not
// track TCP state machines beyond the ISN and the FINs: synthetic and
// well-formed captures are the target, mirroring the paper's use of
// pre-recorded traces.
//
// A conversation is closed — its directions assembled, shown to the sink,
// and its buffers put back on the free lists — when both directions have
// sent FIN and every byte before each FIN has arrived, when a SYN opens a
// new connection on its ports, or at Flush. What the Assembler holds
// therefore follows the conversations open at once, not the capture's
// length; of a closed conversation it keeps only the key, so that a late
// duplicate of one of its segments is dropped instead of starting a
// conversation of its own.
type Assembler struct {
	// sink is shown each closed conversation that carried payload: a is
	// the direction seen first, b the other (nil when only one carried
	// payload). The streams alias recycled buffers and are valid only
	// during the call.
	sink func(a, b *Stream)

	convs   map[FlowKey]*conversation // by canonical key; nil marks a closed conversation
	nextOrd int
	frame   Frame

	// opened lists conversations in the order they opened, each with the
	// ordinal it had then, from head on. An entry whose conversation has
	// since closed (recycle sets its ord to -1, and a reopened one has
	// another) is popped once it reaches the front (Oldest).
	opened []openEntry
	head   int

	convFree []*conversation
	bufFree  [][]byte

	buffered  int // payload bytes held for open conversations
	highWater int // the most buffered has been
	late      int // segments dropped because their conversation had closed

	tracer *obs.Tracer // set by Trace; nil times nothing
	stage  obs.StageID
}

// Trace points the Assembler's reassembly timing at the pcap.reassemble
// stage of the pipeline tracer t; a nil t times nothing and reads no
// clock. One observation covers reassembling one conversation — every
// Feed of one of its frames and assembling its two directions as it
// closes. A conversation holds many transactions, so it feeds stage
// latency rather than opening spans inside any one transaction's tree.
func (a *Assembler) Trace(t *obs.Tracer) {
	a.tracer = t
	if t != nil {
		a.stage = t.Stage("pcap.reassemble")
	}
}

// openEntry is one conversation of the Assembler's open-order FIFO.
type openEntry struct {
	c   *conversation
	ord int
}

// NewAssembler returns an empty Assembler that shows every conversation it
// closes to sink.
func NewAssembler(sink func(a, b *Stream)) *Assembler {
	return &Assembler{sink: sink, convs: make(map[FlowKey]*conversation)}
}

// Release empties the Assembler for another capture: conversations still
// open are dropped unseen, closed ones forgotten, ordinals restart; the
// free lists keep their buffers.
func (a *Assembler) Release() {
	for _, c := range a.convs {
		if c != nil {
			a.recycle(c)
		}
	}
	clear(a.convs)
	clear(a.opened)
	a.opened, a.head = a.opened[:0], 0
	a.nextOrd, a.late = 0, 0
}

// open starts the conversation on key whose first frame arrived at ts.
func (a *Assembler) open(key FlowKey, ts time.Time) *conversation {
	var c *conversation
	if n := len(a.convFree); n > 0 {
		c = a.convFree[n-1]
		a.convFree = a.convFree[:n-1]
	} else {
		c = new(conversation)
	}
	c.key, c.ord, c.first = key, a.nextOrd, ts
	a.convs[key] = c
	if a.head > 0 && 2*a.head >= len(a.opened) {
		// At least half the FIFO is popped: slide the rest down instead of
		// growing, so each entry is moved a constant number of times.
		n := copy(a.opened, a.opened[a.head:])
		clear(a.opened[n:])
		a.opened, a.head = a.opened[:n], 0
	}
	a.opened = append(a.opened, openEntry{c: c, ord: c.ord})
	return c
}

// Oldest returns the capture time of the first frame of the open
// conversation that opened earliest, and false when none is open. On a
// time-ordered capture no transaction an open or future conversation
// yields can be dated before min(Oldest, the last frame's time). It is
// O(1) amortised: each closed conversation is popped once.
func (a *Assembler) Oldest() (time.Time, bool) {
	for ; a.head < len(a.opened); a.head++ {
		if e := a.opened[a.head]; e.c.ord == e.ord {
			return e.c.first, true
		}
		a.opened[a.head] = openEntry{}
	}
	a.opened, a.head = a.opened[:0], 0
	return time.Time{}, false
}

// recycle returns c and its buffers to the free lists.
func (a *Assembler) recycle(c *conversation) {
	for d := range c.dirs {
		st := &c.dirs[d]
		a.buffered -= len(st.buf)
		for _, buf := range [2][]byte{st.buf, c.carved[d]} {
			if buf != nil {
				a.bufFree = append(a.bufFree, buf[:0])
			}
		}
		*st = flowState{segs: st.segs[:0], covered: st.covered[:0]}
		c.streams[d], c.carved[d] = Stream{}, nil
	}
	c.ord, c.spent = -1, 0
	a.convFree = append(a.convFree, c)
}

func (a *Assembler) getBuf() []byte {
	if n := len(a.bufFree); n > 0 {
		buf := a.bufFree[n-1]
		a.bufFree = a.bufFree[:n-1]
		return buf
	}
	return make([]byte, 0, 4096)
}

// grow returns buf with room for n more bytes: moved into a free buffer
// that has the room when there is one — so the buffers in circulation sort
// themselves by the streams that need them instead of each growing to the
// longest — and otherwise at least doubled (append's own growth of a large
// slice is a quarter at a time, five times the final size in all).
func (a *Assembler) grow(buf []byte, n int) []byte {
	for i, free := range a.bufFree {
		if cap(free) >= len(buf)+n {
			a.bufFree[i] = buf[:0]
			return append(free, buf...)
		}
	}
	return slices.Grow(buf, max(n, cap(buf)))
}

// FeedPacket decodes one captured frame and feeds it; frames that are not
// TCP over IP over Ethernet are irrelevant to HTTP analytics and skipped.
func (a *Assembler) FeedPacket(p Packet) {
	if DecodeFrameInto(&a.frame, p.Data) == nil {
		a.Feed(&a.frame, p.Timestamp)
	}
}

// Feed ingests one decoded frame with its capture timestamp. Payload bytes
// are appended to the buffer of the frame's direction (one amortized copy,
// no per-segment allocation); frames whose payload is fully contained in a
// single earlier segment are duplicates under first-copy-wins and are
// dropped. The frame that completes or resets its conversation closes it
// before Feed returns.
func (a *Assembler) Feed(f *Frame, ts time.Time) {
	t0 := a.tracer.Mark()
	key, reversed := f.Key().Canonical()
	d := 0
	if reversed {
		d = 1
	}
	syn := f.Flags&FlagSYN != 0
	rst := f.Flags&FlagRST != 0
	c, known := a.convs[key]
	switch {
	case c == nil && known && !syn:
		// Whatever a closed conversation still receives is a duplicate of
		// what it had, or lies past its FIN or RST.
		a.late++
		return
	case c == nil && rst && len(f.Payload) == 0:
		return // resetting a connection never seen opens nothing
	case c == nil:
		c = a.open(key, ts)
	case syn && c.dirs[d].reopens(f.Seq+1):
		a.close(c)
		c = a.open(key, ts)
	}
	st := &c.dirs[d]
	if !st.seen {
		st.seen, st.ord, st.inOrder = true, a.nextOrd, true
		a.nextOrd++
	}
	if syn && !st.sawISN {
		st.isn = f.Seq + 1 // data begins after SYN consumes one sequence number
		st.sawISN = true
	}
	if len(f.Payload) > 0 {
		a.keep(st, f, ts)
	}
	if f.Flags&FlagFIN != 0 && !st.sawFIN {
		st.sawFIN, st.finSeq = true, f.Seq+uint32(len(f.Payload))
	}
	c.spent += a.tracer.Mark() - t0
	if rst || c.dirs[0].sawFIN && c.dirs[1].sawFIN && c.dirs[0].finished() && c.dirs[1].finished() {
		a.close(c)
	}
}

// keep files f's payload under its direction unless an earlier segment
// already holds all of it.
func (a *Assembler) keep(st *flowState, f *Frame, ts time.Time) {
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
	if st.buf == nil {
		st.buf = a.getBuf()
	}
	off := len(st.buf)
	if len(f.Payload) > cap(st.buf)-off {
		st.buf = a.grow(st.buf, len(f.Payload))
	}
	st.buf = append(st.buf, f.Payload...) // room is ensured above; a recycled buffer already has it
	if len(st.segs) > 0 && rel < st.next {
		st.inOrder = false
	}
	st.next = end
	st.segs = append(st.segs, segment{relSeq: rel, off: off, end: off + len(f.Payload), ts: ts}) // amortised growth of a slice recycled with its conversation
	if a.buffered += len(f.Payload); a.buffered > a.highWater {
		a.highWater = a.buffered
	}
}

// close assembles c's directions, shows them to the sink, recycles c and
// leaves its key behind as closed. Gaps in the sequence space are skipped
// (the stream continues at the next available segment), matching what
// offline forensic tooling does with lossy captures. With a tracer bound
// (Trace), what reassembling c took — feeding its frames and assembling its
// directions here — is one observation of the pcap.reassemble stage.
func (a *Assembler) close(c *conversation) {
	t0 := a.tracer.Mark()
	first := 0 // the direction whose frame opened the conversation
	if c.dirs[1].seen && c.dirs[1].ord == c.ord {
		first = 1
	}
	var out [2]*Stream
	n := 0
	for _, d := range [2]int{first, 1 - first} {
		st := &c.dirs[d]
		if len(st.segs) == 0 {
			continue
		}
		data := st.buf
		if !st.inOrder {
			data = a.carve(st)
			c.carved[d] = data
		}
		s := &c.streams[d]
		*s = Stream{Key: c.key, Data: data, FirstSeen: st.tsFirst, LastSeen: st.tsLast, ord: st.ord, marks: st.segs}
		if d == 1 {
			s.Key = c.key.Reverse()
		}
		out[n] = s
		n++
	}
	a.tracer.ObserveStage(a.stage, (c.spent + a.tracer.Mark() - t0).Seconds())
	if n > 0 {
		for _, s := range out[:n] {
			s.Conv = out[0].ord
		}
		a.sink(out[0], out[1])
	}
	a.recycle(c)
	a.convs[c.key] = nil
}

// carve assembles the stream of a direction whose segments arrived out of
// order or overlapping: sorted by sequence, each contributes the bytes past
// what the ones before it reached. It rewrites st.segs into the kept
// segments with off as the offset into the returned bytes.
func (a *Assembler) carve(st *flowState) []byte {
	st.sortSegs()
	out := a.getBuf()
	kept := 0
	nextSeq := st.segs[0].relSeq
	for _, seg := range st.segs {
		end := seg.relSeq + int64(seg.end-seg.off)
		if end <= nextSeq {
			continue // full retransmission
		}
		data := st.buf[seg.off:seg.end]
		if seg.relSeq < nextSeq {
			data = data[nextSeq-seg.relSeq:] // partial overlap
		}
		st.segs[kept] = segment{off: len(out), ts: seg.ts}
		kept++
		out = append(out, data...) // amortised growth of a buffer from the free list
		nextSeq = end
	}
	st.segs = st.segs[:kept]
	return out
}

// Flush closes every conversation still open, in first-seen order: the
// capture has ended.
func (a *Assembler) Flush() {
	var open []*conversation
	for _, c := range a.convs {
		if c != nil {
			open = append(open, c)
		}
	}
	slices.SortFunc(open, func(x, y *conversation) int { return x.ord - y.ord })
	for _, c := range open {
		a.close(c)
	}
}

// AssembleStreamsInto is the collecting form of the Assembler: it decodes
// and feeds every packet (skipping non-TCP frames), and appends a copy of
// every reassembled stream to dst in first-seen order of the directions.
// The copies own their bytes; the returned Assembler only offers Release.
func AssembleStreamsInto(dst []*Stream, pkts []Packet) ([]*Stream, *Assembler) {
	from := len(dst)
	a := NewAssembler(func(x, y *Stream) {
		dst = append(dst, x.clone())
		if y != nil {
			dst = append(dst, y.clone())
		}
	})
	for i := range pkts {
		a.FeedPacket(pkts[i])
	}
	a.Flush()
	slices.SortFunc(dst[from:], func(x, y *Stream) int { return x.ord - y.ord })
	return dst, a
}
