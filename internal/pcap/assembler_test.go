package pcap

import (
	"bytes"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"dynaminer/internal/obs"
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
// segment must be dropped at Feed rather than retained until the
// conversation closes. Of 8 data frames only the 3 distinct-contribution
// segments are kept, and the reassembled bytes still honor first-copy-wins.
func TestFeedDropsDuplicateSegments(t *testing.T) {
	a, out := collecting()
	frames := retransmissionHeavyFrames()
	for i, f := range frames {
		a.Feed(f, baseTime.Add(time.Duration(i)*time.Millisecond))
	}
	key, _ := frames[0].Key().Canonical()
	st := &a.convs[key].dirs[0]
	if got, want := len(st.segs), 3; got != want {
		t.Fatalf("retained segments = %d, want %d (duplicates must be dropped at feed time)", got, want)
	}
	if got, want := a.buffered, 10+10+12; got != want {
		t.Fatalf("buffered payload = %d bytes, want %d", got, want)
	}
	a.Flush()
	streams := *out
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
	a, out := collecting()
	a.Feed(mkDataFrame(100, "", true), baseTime)
	a.Feed(mkDataFrame(101, "AAAAA", false), baseTime)      // [0,5)
	a.Feed(mkDataFrame(111, "CCCCC", false), baseTime)      // [10,15)
	a.Feed(mkDataFrame(104, "BBBBBBBBBB", false), baseTime) // [3,13): union-covered at the edges, contributes [5,10)
	a.Flush()
	if got := string((*out)[0].Data); got != "AAAAABBBBBBBBCC" {
		t.Fatalf("data = %q, want %q", got, "AAAAABBBBBBBBCC")
	}
}

// sameStreams reports whether got and want agree on everything a consumer
// can see of a stream: key, bytes, timestamp envelope, TimeAt attribution.
func sameStreams(got, want []*Stream) bool {
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

// TestAssembleStreamsIntoMatchesAssembleStreams differentially checks the
// engine's collecting form against the whole-capture reference assembler
// on randomized retransmission-heavy captures: same keys, bytes, timestamp
// envelopes, and TimeAt attribution.
func TestAssembleStreamsIntoMatchesAssembleStreams(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3000)
		orig := make([]byte, n)
		r.Read(orig)
		var frames []*Frame
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
		// The SYN stays first: one that followed payload would open a
		// second connection, which the reference does not know of.
		pkts := mkPackets(t, append([]*Frame{mkDataFrame(100, "", true)}, frames...))

		got, _ := AssembleStreamsInto(nil, pkts)
		return sameStreams(got, RefAssembleStreams(pkts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAssemblerReleaseReuse feeds two different captures through the same
// assembler and checks the second result carries no residue of the first.
func TestAssemblerReleaseReuse(t *testing.T) {
	a, out := collecting()
	a.Feed(mkDataFrame(100, "", true), baseTime)
	a.Feed(mkDataFrame(101, "first capture", false), baseTime)
	a.Flush()
	if got := string((*out)[0].Data); got != "first capture" {
		t.Fatalf("first use: data = %q", got)
	}
	a.Release()
	*out = nil

	// The same ports as the closed conversation, and no SYN: taken for a
	// late segment of it had Release not forgotten it.
	f := mkDataFrame(201, "second", false)
	a.Feed(f, baseTime.Add(time.Hour))
	a.Flush()
	streams := *out
	if len(streams) != 1 {
		t.Fatalf("after release: streams = %d, want 1", len(streams))
	}
	if got := string(streams[0].Data); got != "second" {
		t.Fatalf("after release: data = %q", got)
	}
	if streams[0].Conv != 0 || a.late != 0 {
		t.Fatalf("after release: Conv = %d, late = %d, want ordinals and counters restarted", streams[0].Conv, a.late)
	}
	if !streams[0].FirstSeen.Equal(baseTime.Add(time.Hour)) {
		t.Fatalf("after release: FirstSeen = %v", streams[0].FirstSeen)
	}
}

// conv builds the packets of one request/response conversation on the
// given client port, starting at ts.
func convPackets(t testing.TB, port uint16, ts time.Time, req, resp string) []Packet {
	t.Helper()
	pkts, err := BuildConversation(Conversation{
		ClientIP: netip.MustParseAddr("10.0.0.1"), ServerIP: netip.MustParseAddr("10.0.0.2"),
		ClientPort: port, ServerPort: 80,
		Exchanges: []Exchange{
			{ClientToServer: true, Payload: []byte(req), Timestamp: ts},
			{ClientToServer: false, Payload: []byte(resp), Timestamp: ts.Add(10 * time.Millisecond)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// TestConversationClosesWhenComplete pins the close rule: a conversation is
// shown to the sink by the frame that completes it — both FINs seen and
// every byte before each FIN arrived — not at Flush, and not by a FIN that
// overtook the data before it.
func TestConversationClosesWhenComplete(t *testing.T) {
	resp := string(bytes.Repeat([]byte("r"), 3000)) // three segments
	pkts := convPackets(t, 40000, baseTime, "GET / HTTP/1.1\r\n\r\n", resp)
	n := len(pkts)
	// pkts[n-3] is the response's last data segment, pkts[n-2:] the FINs.
	reordered := slices.Clone(pkts)
	reordered[n-3], reordered[n-1] = reordered[n-1], reordered[n-3]

	for name, order := range map[string][]Packet{"in order": pkts, "FINs overtake the last segment": reordered} {
		a, out := collecting()
		for i, p := range order {
			a.FeedPacket(p)
			if i < n-1 && len(*out) != 0 {
				t.Fatalf("%s: closed by packet %d of %d, before it was complete", name, i+1, n)
			}
		}
		if len(*out) != 2 {
			t.Fatalf("%s: %d streams closed by the last packet, want 2 before any Flush", name, len(*out))
		}
		if got := (*out)[1].Data; string(got) != resp {
			t.Fatalf("%s: response stream is %d bytes, want the %d sent", name, len(got), len(resp))
		}
		if a.buffered != 0 || len(a.bufFree) == 0 {
			t.Fatalf("%s: %d bytes still buffered, %d free buffers: close must recycle at once", name, a.buffered, len(a.bufFree))
		}
	}
}

// withRST returns a conversation's packets with its FIN teardown replaced by
// one RST from the client.
func withRST(t testing.TB, pkts []Packet) []Packet {
	t.Helper()
	n := len(pkts)
	var f Frame
	if err := DecodeFrameInto(&f, pkts[n-2].Data); err != nil { // the client's FIN
		t.Fatal(err)
	}
	f.Flags = FlagRST | FlagACK
	data, err := EncodeFrame(&f)
	if err != nil {
		t.Fatal(err)
	}
	return append(slices.Clone(pkts[:n-2]), Packet{Timestamp: pkts[n-2].Timestamp, Data: data})
}

// TestRSTClosesConversation pins the reset rule: an RST from either side
// closes its conversation at once, with the same streams the FIN teardown
// gives, and whatever reaches the key afterwards that is not a SYN is
// dropped as late, as after a FIN close. A reset of a connection never
// seen opens nothing.
func TestRSTClosesConversation(t *testing.T) {
	pkts := convPackets(t, 40000, baseTime, "GET / HTTP/1.1\r\n\r\n", "HTTP/1.1 204 No Content\r\n\r\n")
	fin, finOut := collecting()
	for _, p := range pkts {
		fin.FeedPacket(p)
	}
	a, out := collecting()
	for _, p := range withRST(t, pkts) {
		a.FeedPacket(p)
	}
	if !sameStreams(*out, *finOut) || len(*out) != 2 {
		t.Fatalf("RST closed %d streams, the FIN teardown %d: want the same two", len(*out), len(*finOut))
	}
	if _, open := a.Oldest(); open {
		t.Fatal("the reset conversation is still open")
	}
	a.FeedPacket(pkts[3]) // the request, again
	if a.late != 1 || len(*out) != 2 {
		t.Fatalf("a segment after the RST: late = %d, streams = %d; want it dropped as late", a.late, len(*out))
	}
	stray := mkDataFrame(7000, "", false)
	stray.SrcPort, stray.Flags = 41000, FlagRST
	a.Feed(stray, baseTime)
	if _, open := a.Oldest(); open || len(a.convs) != 1 {
		t.Fatalf("a reset of an unseen connection left %d keys, open = %v", len(a.convs), open)
	}
}

// TestOldestFollowsOpenConversations pins Oldest: the first-frame time of
// the earliest-opened conversation still open, through closes out of open
// order and a recycled conversation struct reopened for another key.
func TestOldestFollowsOpenConversations(t *testing.T) {
	a, _ := collecting()
	if _, ok := a.Oldest(); ok {
		t.Fatal("an empty Assembler reports an open conversation")
	}
	conv := func(port uint16, s int) []Packet {
		return convPackets(t, port, baseTime.Add(time.Duration(s)*time.Second), "GET / HTTP/1.1\r\n\r\n", "HTTP/1.1 204 No Content\r\n\r\n")
	}
	x, y, z, w := conv(40001, 10), conv(40002, 20), conv(40003, 30), conv(40004, 40)
	want := func(step string, oldest []Packet) {
		t.Helper()
		if got, ok := a.Oldest(); !ok || !got.Equal(oldest[0].Timestamp) {
			t.Fatalf("%s: Oldest = %v, %v; want %v, the first frame of the oldest open conversation", step, got, ok, oldest[0].Timestamp)
		}
	}
	a.FeedPacket(x[0])
	a.FeedPacket(y[0])
	a.FeedPacket(z[0])
	want("three open", x)
	for _, p := range y[1:] {
		a.FeedPacket(p)
	}
	want("the middle one closed", x)
	for _, p := range x[1:] {
		a.FeedPacket(p)
	}
	want("the first one closed too", z)
	a.FeedPacket(w[0]) // reuses a recycled conversation
	want("a recycled conversation reopened", z)
	for _, p := range z[1:] {
		a.FeedPacket(p)
	}
	want("only the reopened one left", w)
	a.Flush()
	if _, ok := a.Oldest(); ok || len(a.opened) != 0 {
		t.Fatalf("after Flush: %d FIFO entries, open = %v", len(a.opened), ok)
	}
}

// TestLateSegmentsAfterCloseAreDropped is the tombstone rule: once a
// conversation has closed, a duplicate of one of its segments, or bytes
// past its FIN, are counted and dropped; they neither reach the closed
// streams nor start a conversation of their own.
func TestLateSegmentsAfterCloseAreDropped(t *testing.T) {
	pkts := convPackets(t, 40000, baseTime, "GET / HTTP/1.1\r\n\r\n", "HTTP/1.1 204 No Content\r\n\r\n")
	a, out := collecting()
	for _, p := range pkts {
		a.FeedPacket(p)
	}
	want := slices.Clone(*out)
	if len(want) != 2 {
		t.Fatalf("streams = %d, want 2", len(want))
	}
	a.FeedPacket(pkts[3]) // the request, again
	past := mkDataFrame(1000+1+uint32(len(want[0].Data))+1, "past the FIN", false)
	past.SrcPort = 40000
	a.Feed(past, baseTime.Add(time.Second))
	a.Flush()
	if a.late != 2 {
		t.Fatalf("late segments counted = %d, want 2", a.late)
	}
	if !sameStreams(*out, want) {
		t.Fatalf("late segments changed the result: %d streams, want the 2 closed before them", len(*out))
	}
}

// TestReassembleStageCoversFeedAndClose pins what a pcap.reassemble
// observation is: everything reassembling one conversation took — each Feed
// of one of its frames and the close step — not the close step alone.
func TestReassembleStageCoversFeedAndClose(t *testing.T) {
	tick := baseTime
	t.Cleanup(obs.SetClock(func() time.Time { tick = tick.Add(time.Millisecond); return tick })) // every interval timed reads 1 ms
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, 0)

	pkts := convPackets(t, 40000, baseTime, "GET / HTTP/1.1\r\n\r\n", "HTTP/1.1 204 No Content\r\n\r\n")
	a, out := collecting()
	a.Trace(tr)
	for _, p := range pkts {
		a.FeedPacket(p)
	}
	if len(*out) != 2 {
		t.Fatalf("streams = %d, want the conversation closed by its last packet", len(*out))
	}
	want := time.Duration(len(pkts)+1) * time.Millisecond
	var got float64
	for _, s := range reg.Snapshot() {
		if s.Name == "dynaminer_stage_pcap_reassemble_seconds" {
			got = s.Sum
		}
	}
	if got != want.Seconds() {
		t.Fatalf("pcap.reassemble observed %v s for %d packets and one close, want %v s", got, len(pkts), want.Seconds())
	}
}

// TestSYNOpensNewConnection pins which SYNs open a new connection on a
// 4-tuple already in use: one that follows payload, or that announces
// another initial sequence number; a repeated SYN before any payload is
// the same connection.
func TestSYNOpensNewConnection(t *testing.T) {
	a, out := collecting()
	a.Feed(mkDataFrame(100, "", true), baseTime)
	a.Feed(mkDataFrame(100, "", true), baseTime) // retransmitted SYN
	a.Feed(mkDataFrame(101, "one", false), baseTime)
	if len(*out) != 0 {
		t.Fatal("a retransmitted SYN before any payload closed the conversation")
	}
	a.Feed(mkDataFrame(100, "", true), baseTime) // same ISN, after payload
	if len(*out) != 1 || string((*out)[0].Data) != "one" {
		t.Fatalf("a SYN after payload must close the old connection: closed %d", len(*out))
	}
	a.Feed(mkDataFrame(900, "", true), baseTime) // another ISN, before payload
	a.Feed(mkDataFrame(901, "three", false), baseTime)
	a.Flush()
	if len(*out) != 2 || string((*out)[1].Data) != "three" {
		t.Fatalf("closed %d streams, want the first connection and the one opened at the new ISN", len(*out))
	}
	if (*out)[0].Conv == (*out)[1].Conv {
		t.Fatalf("both connections carry Conv %d", (*out)[0].Conv)
	}
}

// ingest runs capture through the record reader and a fresh Assembler whose
// sink only counts, and returns the Assembler.
func ingest(t testing.TB, capture []byte) *Assembler {
	t.Helper()
	streamBytes := 0
	a := NewAssembler(func(x, y *Stream) {
		streamBytes += len(x.Data)
		if y != nil {
			streamBytes += len(y.Data)
		}
	})
	if err := Scan(bytes.NewReader(capture), a.FeedPacket); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	if streamBytes == 0 {
		t.Fatal("no payload reassembled")
	}
	return a
}

// concurrentCapture renders rounds batches of 8 conversations, each batch
// interleaved packet by packet and over before the next begins, each
// response bodyBytes long.
func concurrentCapture(t testing.TB, rounds, bodyBytes int) []byte {
	t.Helper()
	resp := "HTTP/1.1 200 OK\r\n\r\n" + string(bytes.Repeat([]byte("b"), bodyBytes))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for round := 0; round < rounds; round++ {
		var convs [8][]Packet
		for i := range convs {
			convs[i] = convPackets(t, uint16(1024+round*8+i), baseTime.Add(time.Duration(round)*time.Second), "GET / HTTP/1.1\r\n\r\n", resp)
		}
		for j := 0; j < len(convs[0]); j++ {
			for i := range convs {
				if err := w.WritePacket(convs[i][j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return buf.Bytes()
}

// TestIngestMemoryFollowsOpenConversations is memory gate (a): what the
// Assembler holds follows the conversations open at once, not the capture.
// Ten times the conversations at the same concurrency may raise the
// buffered-bytes high-water mark by at most half (it does not move), and
// the buffers in circulation stay those of one batch.
func TestIngestMemoryFollowsOpenConversations(t *testing.T) {
	small := ingest(t, concurrentCapture(t, 4, 20000))
	large := ingest(t, concurrentCapture(t, 40, 20000))
	t.Logf("high-water: %d bytes over 32 conversations, %d over 320; %d and %d free buffers", small.highWater, large.highWater, len(small.bufFree), len(large.bufFree))
	if small.highWater < 8*20000 {
		t.Fatalf("high-water %d is below one batch of bodies: the gate measures nothing", small.highWater)
	}
	if float64(large.highWater) > 1.5*float64(small.highWater) {
		t.Fatalf("high-water grew from %d to %d bytes with 10x the conversations at the same concurrency", small.highWater, large.highWater)
	}
	if len(large.bufFree) > 16 || len(large.convFree) > 8 {
		t.Fatalf("%d buffers and %d conversations on the free lists, want at most one batch's 16 and 8", len(large.bufFree), len(large.convFree))
	}
	if small.buffered != 0 || large.buffered != 0 {
		t.Fatalf("%d and %d bytes still buffered after Flush", small.buffered, large.buffered)
	}
}

// TestIngestAllocsPerPacket is memory gate (c): reading and reassembling a
// body-heavy capture allocates for the reader's buffer and for the buffers
// of the first conversations, then nothing per packet.
func TestIngestAllocsPerPacket(t *testing.T) {
	capture := concurrentCapture(t, 40, 50000)
	packets := 0
	if err := Scan(bytes.NewReader(capture), func(Packet) { packets++ }); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() { ingest(t, capture) })
	t.Logf("%d packets, %.0f allocations: %.4f per packet", packets, allocs, allocs/float64(packets))
	if allocs > 0.1*float64(packets) {
		t.Fatalf("%.0f allocations over %d packets (%.3f per packet), want at most 0.1", allocs, packets, allocs/float64(packets))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ingest(t, capture)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(capture))/4 {
		t.Fatalf("ingest allocated %d bytes for a %d-byte capture: something capture-sized is being made", got, len(capture))
	}
}

// TestCarveReusesFreeBuffers holds the out-of-order path of a warm
// Assembler at zero allocations: a conversation whose segments arrive out
// of order and overlapping is carved into a buffer from the free list, and
// that buffer goes back to the list when the conversation is recycled.
func TestCarveReusesFreeBuffers(t *testing.T) {
	carved := 0
	a := NewAssembler(func(x, _ *Stream) {
		if string(x.Data) == "0123456789abcdefghij" {
			carved++
		}
	})
	frames := retransmissionHeavyFrames()
	rst := mkDataFrame(121, "", false)
	rst.Flags = FlagRST
	frames = append(frames, rst)
	round := func() {
		for i, f := range frames {
			a.Feed(f, baseTime.Add(time.Duration(i)*time.Millisecond))
		}
		a.Release()
	}
	round() // warm: the free lists now hold a conversation and its buffers
	if carved != 1 {
		t.Fatalf("the warm-up round closed %d carved conversations, want 1", carved)
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("an out-of-order conversation on a warm Assembler allocates %.1f times, want 0", allocs)
	}
	if carved != 102 {
		t.Fatalf("%d conversations carved, want 102", carved)
	}
}

func BenchmarkIngest(b *testing.B) {
	capture := concurrentCapture(b, 10, 200000)
	b.SetBytes(int64(len(capture)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest(b, capture)
	}
}

func BenchmarkAssembleStreamsInto(b *testing.B) {
	pkts := benchCapture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if streams, _ := AssembleStreamsInto(nil, pkts); len(streams) == 0 {
			b.Fatal("no streams")
		}
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
