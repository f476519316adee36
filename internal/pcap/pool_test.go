package pcap

import (
	"bytes"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// mkPackets encodes frames into capture packets spaced 1ms apart.
func mkPackets(t testing.TB, frames []*Frame) []Packet {
	t.Helper()
	pkts := make([]Packet, 0, len(frames))
	for i, f := range frames {
		data, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode frame %d: %v", i, err)
		}
		pkts = append(pkts, Packet{Timestamp: baseTime.Add(time.Duration(i) * time.Millisecond), Data: data})
	}
	return pkts
}

// retransmissionHeavyFrames builds a capture where over half the data
// frames are exact or contained retransmissions of earlier segments.
func retransmissionHeavyFrames() []*Frame {
	frames := []*Frame{mkDataFrame(100, "", true)}
	payload := "0123456789abcdefghij" // 20 bytes at rel 0..20
	frames = append(frames,
		mkDataFrame(101, payload[:10], false),  // [0,10)
		mkDataFrame(101, payload[:10], false),  // exact retransmit: duplicate
		mkDataFrame(103, "XXXX", false),        // [2,6): contained, first copy must win
		mkDataFrame(111, payload[10:], false),  // [10,20)
		mkDataFrame(111, payload[10:], false),  // exact retransmit: duplicate
		mkDataFrame(105, payload[4:16], false), // [4,16): spans two segments, NOT droppable
		mkDataFrame(106, "YY", false),          // [5,7): contained in [0,10)
	)
	return frames
}

// TestFeedDropsDuplicateSegments is the regression test for the feed-time
// memory bug: retransmitted payloads fully contained in a single earlier
// segment must be dropped at Feed rather than retained in flowState.segs
// until Streams. Before the fix every duplicate stayed alive (8 data
// frames -> 8 segments); now only the 3 distinct-contribution segments
// survive, and the reassembled bytes still honor first-copy-wins.
func TestFeedDropsDuplicateSegments(t *testing.T) {
	a := NewAssembler()
	for i, f := range retransmissionHeavyFrames() {
		a.Feed(f, baseTime.Add(time.Duration(i)*time.Millisecond))
	}
	st := a.flows[a.order[0]]
	if got, want := len(st.segs), 3; got != want {
		t.Fatalf("retained segments = %d, want %d (duplicates must be dropped at feed time)", got, want)
	}
	streams := a.Streams()
	if len(streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(streams))
	}
	if got := string(streams[0].Data); got != "0123456789abcdefghij" {
		t.Fatalf("data = %q, want first-copy-wins reassembly %q", got, "0123456789abcdefghij")
	}
	// The timestamp envelope still covers dropped duplicates: the last
	// data frame fed (a dropped duplicate at +7ms) defines LastSeen.
	if want := baseTime.Add(7 * time.Millisecond); !streams[0].LastSeen.Equal(want) {
		t.Fatalf("LastSeen = %v, want %v (dropped duplicates still advance the envelope)", streams[0].LastSeen, want)
	}
}

// TestUnionCoveredSegmentKept pins the subtle half of the duplicate rule:
// a segment covered only by the *union* of earlier segments can still
// contribute bytes, so only single-segment containment may drop.
func TestUnionCoveredSegmentKept(t *testing.T) {
	a := NewAssembler()
	a.Feed(mkDataFrame(100, "", true), baseTime)
	a.Feed(mkDataFrame(101, "AAAAA", false), baseTime)      // [0,5)
	a.Feed(mkDataFrame(111, "CCCCC", false), baseTime)      // [10,15)
	a.Feed(mkDataFrame(104, "BBBBBBBBBB", false), baseTime) // [3,13): union-covered at the edges, contributes [5,10)
	streams := a.Streams()
	if got := string(streams[0].Data); got != "AAAAABBBBBBBBCC" {
		t.Fatalf("data = %q, want %q", got, "AAAAABBBBBBBBCC")
	}
}

// TestAssembleStreamsIntoMatchesAssembleStreams differentially checks the
// pooled path against the GC-owned path on randomized retransmission-heavy
// captures: same keys, bytes, timestamp envelopes, and TimeAt attribution.
func TestAssembleStreamsIntoMatchesAssembleStreams(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3000)
		orig := make([]byte, n)
		r.Read(orig)
		var frames []*Frame
		frames = append(frames, mkDataFrame(100, "", true))
		for off := 0; off < n; {
			l := 1 + r.Intn(400)
			if off+l > n {
				l = n - off
			}
			frames = append(frames, mkDataFrame(101+uint32(off), string(orig[off:off+l]), false))
			off += l
		}
		for i, n0 := 0, len(frames); i < n0; i++ { // heavy duplication
			frames = append(frames, frames[r.Intn(n0)])
		}
		r.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
		pkts := mkPackets(t, frames)

		want := AssembleStreams(pkts)
		got, asm := AssembleStreamsInto(nil, pkts)
		defer asm.Release()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Key != w.Key || !bytes.Equal(g.Data, w.Data) ||
				!g.FirstSeen.Equal(w.FirstSeen) || !g.LastSeen.Equal(w.LastSeen) {
				return false
			}
			for off := 0; off < len(g.Data); off += 97 {
				if !g.TimeAt(off).Equal(w.TimeAt(off)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAssemblerReleaseReuse feeds two different captures through the same
// pooled assembler and checks the second result carries no residue of the
// first.
func TestAssemblerReleaseReuse(t *testing.T) {
	a := GetAssembler()
	a.Feed(mkDataFrame(100, "", true), baseTime)
	a.Feed(mkDataFrame(101, "first capture", false), baseTime)
	if got := string(a.Streams()[0].Data); got != "first capture" {
		t.Fatalf("first use: data = %q", got)
	}
	a.Reset()

	f := mkDataFrame(201, "second", false)
	f.SrcIP = netip.MustParseAddr("192.0.2.9")
	a.Feed(f, baseTime.Add(time.Hour))
	streams := a.Streams()
	if len(streams) != 1 {
		t.Fatalf("after reset: streams = %d, want 1", len(streams))
	}
	if got := string(streams[0].Data); got != "second" {
		t.Fatalf("after reset: data = %q", got)
	}
	if streams[0].Key.SrcIP != netip.MustParseAddr("192.0.2.9") {
		t.Fatalf("after reset: key = %+v", streams[0].Key)
	}
	if !streams[0].FirstSeen.Equal(baseTime.Add(time.Hour)) {
		t.Fatalf("after reset: FirstSeen = %v", streams[0].FirstSeen)
	}
	a.Release()
}

// TestPooledReassemblyAllocs pins the steady-state zero-alloc contract of
// the pooled reassembly path: once the pooled assembler's arenas are warm,
// decoding + feeding + stream carving for a whole capture (including
// out-of-order and duplicate segments) allocates nothing.
func TestPooledReassemblyAllocs(t *testing.T) {
	frames := retransmissionHeavyFrames()
	// Out-of-order tail exercises the in-place insertion sort.
	frames = append(frames, mkDataFrame(131, "tail", false), mkDataFrame(121, "0123456789", false))
	pkts := mkPackets(t, frames)

	var dst []*Stream
	run := func() {
		streams, asm := AssembleStreamsInto(dst[:0], pkts)
		dst = streams[:0]
		if len(streams) != 1 || len(streams[0].Data) == 0 {
			panic("pooled reassembly produced wrong streams")
		}
		asm.Release()
	}
	run() // warm the pool and arenas
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("pooled reassembly allocates %.1f times per capture in steady state, want 0", allocs)
	}
}

// TestColdReassemblyArenaSizedOnce pins what a cold assembler — a fresh
// one, or a pooled one after a GC emptied the pool — costs per payload
// byte: the payload arena made once from the capture's frame bytes and the
// stream arena made once from that, about 2.3x. With the payload arena
// grown through the capture by append instead, the call cost over 6x.
func TestColdReassemblyArenaSizedOnce(t *testing.T) {
	const conns, perConn, segment = 8, 256 << 10, 1400
	var frames []*Frame
	for conn := 0; conn < conns; conn++ {
		base := Frame{
			SrcIP:   netip.MustParseAddr("10.0.0.1"),
			DstIP:   netip.MustParseAddr("10.0.0.2"),
			SrcPort: uint16(40000 + conn),
			DstPort: 80,
			Seq:     100,
			Flags:   FlagSYN,
		}
		syn := base
		frames = append(frames, &syn)
		for off := 0; off < perConn; off += segment {
			f := base
			f.Flags = FlagACK
			f.Seq = 101 + uint32(off)
			f.Payload = bytes.Repeat([]byte{byte(off)}, min(segment, perConn-off))
			frames = append(frames, &f)
		}
	}
	pkts := mkPackets(t, frames)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	streams := AssembleStreams(pkts)
	runtime.ReadMemStats(&after)
	payload := 0
	for _, s := range streams {
		payload += len(s.Data)
	}
	if payload != conns*perConn {
		t.Fatalf("reassembled %d payload bytes, want %d", payload, conns*perConn)
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(payload)
	t.Logf("cold AssembleStreams: %.2f bytes allocated per payload byte", ratio)
	if ratio > 2.6 {
		t.Fatalf("cold AssembleStreams allocates %.2f bytes per payload byte, want at most 2.6", ratio)
	}
}

func BenchmarkAssembleStreams(b *testing.B) {
	pkts := benchCapture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := AssembleStreams(pkts)
		if len(streams) == 0 {
			b.Fatal("no streams")
		}
	}
}

func BenchmarkAssembleStreamsPooled(b *testing.B) {
	pkts := benchCapture(b)
	var dst []*Stream
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams, asm := AssembleStreamsInto(dst[:0], pkts)
		if len(streams) == 0 {
			b.Fatal("no streams")
		}
		dst = streams[:0]
		asm.Release()
	}
}

func benchCapture(tb testing.TB) []Packet {
	r := rand.New(rand.NewSource(42))
	var frames []*Frame
	for conn := 0; conn < 8; conn++ {
		base := &Frame{
			SrcIP:   netip.MustParseAddr("10.0.0.1"),
			DstIP:   netip.MustParseAddr("10.0.0.2"),
			SrcPort: uint16(40000 + conn),
			DstPort: 80,
			Seq:     100,
			Flags:   FlagSYN,
		}
		frames = append(frames, base)
		for off := 0; off < 32<<10; off += 1024 {
			buf := make([]byte, 1024)
			r.Read(buf)
			f := *base
			f.Flags = FlagACK
			f.Seq = 101 + uint32(off)
			f.Payload = buf
			frames = append(frames, &f)
			if r.Intn(4) == 0 { // sprinkle retransmissions
				frames = append(frames, &f)
			}
		}
	}
	return mkPackets(tb, frames)
}
