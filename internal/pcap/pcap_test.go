package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

var baseTime = time.Date(2016, 7, 10, 14, 0, 0, 0, time.UTC)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pkts := []Packet{
		{Timestamp: baseTime, Data: bytes.Repeat([]byte{0xaa}, 60)},
		{Timestamp: baseTime.Add(1500 * time.Microsecond), Data: []byte{1, 2, 3}},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAllAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, want %d", len(got), len(pkts))
	}
	for i := range pkts {
		if !got[i].Timestamp.Equal(pkts[i].Timestamp) {
			t.Errorf("packet %d ts = %v, want %v", i, got[i].Timestamp, pkts[i].Timestamp)
		}
		if !bytes.Equal(got[i].Data, pkts[i].Data) {
			t.Errorf("packet %d data mismatch", i)
		}
	}
}

func TestReaderBigEndian(t *testing.T) {
	// Hand-build a big-endian capture with one 4-byte packet.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:], magicLE) // stored BE => reader sees swapped magic
	binary.BigEndian.PutUint16(hdr[4:], 2)
	binary.BigEndian.PutUint16(hdr[6:], 4)
	binary.BigEndian.PutUint32(hdr[16:], defaultSnapLen)
	binary.BigEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:], uint32(baseTime.Unix()))
	binary.BigEndian.PutUint32(rec[4:], 250)
	binary.BigEndian.PutUint32(rec[8:], 4)
	binary.BigEndian.PutUint32(rec[12:], 4)
	buf.Write(rec)
	buf.Write([]byte{9, 8, 7, 6})

	got, err := ReadAllAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0].Data, []byte{9, 8, 7, 6}) {
		t.Fatalf("big-endian read wrong: %+v", got)
	}
	if got[0].Timestamp.Nanosecond() != 250000 {
		t.Fatalf("usec decode wrong: %v", got[0].Timestamp)
	}
}

// nanoCapture renders pkts as a classic capture with nanosecond
// timestamps (magic 0xa1b23c4d) in the given byte order, as tcpdump
// --time-stamp-precision nano writes it.
func nanoCapture(order binary.AppendByteOrder, pkts []Packet) []byte {
	b := order.AppendUint32(nil, 0xa1b23c4d)
	b = order.AppendUint16(b, 2)
	b = order.AppendUint16(b, 4)
	b = append(b, make([]byte, 8)...) // thiszone, sigfigs
	b = order.AppendUint32(b, defaultSnapLen)
	b = order.AppendUint32(b, LinkTypeEthernet)
	for _, p := range pkts {
		b = order.AppendUint32(b, uint32(p.Timestamp.Unix()))
		b = order.AppendUint32(b, uint32(p.Timestamp.Nanosecond()))
		b = order.AppendUint32(b, uint32(len(p.Data)))
		b = order.AppendUint32(b, uint32(len(p.Data)))
		b = append(b, p.Data...)
	}
	return b
}

// TestReaderNanosecondMagic: a capture written with nanosecond timestamps,
// in either byte order, reads back exact to the nanosecond.
func TestReaderNanosecondMagic(t *testing.T) {
	pkts := []Packet{
		{Timestamp: baseTime.Add(123456789 * time.Nanosecond), Data: []byte{1, 2, 3}},
		{Timestamp: baseTime.Add(time.Second + 999999999*time.Nanosecond), Data: []byte{4}},
	}
	for _, order := range []binary.AppendByteOrder{binary.LittleEndian, binary.BigEndian} {
		got, err := ReadAllAuto(bytes.NewReader(nanoCapture(order, pkts)))
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if len(got) != len(pkts) {
			t.Fatalf("%v: %d packets, want %d", order, len(got), len(pkts))
		}
		for i := range pkts {
			if !got[i].Timestamp.Equal(pkts[i].Timestamp) || !bytes.Equal(got[i].Data, pkts[i].Data) {
				t.Fatalf("%v: packet %d read back as %v %v, want %v %v", order, i, got[i].Timestamp, got[i].Data, pkts[i].Timestamp, pkts[i].Data)
			}
		}
	}
}

func TestReaderBadMagic(t *testing.T) {
	_, err := newReader(newWindow(bytes.NewReader(make([]byte, 24))))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(Packet{Timestamp: baseTime, Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	_, err := ReadAllAuto(bytes.NewReader(trunc))
	if err == nil {
		t.Fatal("expected error for truncated capture")
	}
}

func TestEmptyCaptureFlush(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty capture returned %d packets", len(got))
	}
}

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	f := &Frame{
		SrcMAC:  [6]byte{2, 0, 0, 0, 0, 1},
		DstMAC:  [6]byte{2, 0, 0, 0, 0, 2},
		SrcIP:   netip.MustParseAddr("10.0.0.5"),
		DstIP:   netip.MustParseAddr("93.184.216.34"),
		SrcPort: 49152,
		DstPort: 80,
		Seq:     12345,
		Ack:     67890,
		Flags:   FlagACK | FlagPSH,
		Payload: []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"),
	}
	data, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	var got Frame
	if err := DecodeFrameInto(&got, data); err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != f.SrcIP || got.DstIP != f.DstIP {
		t.Fatalf("IPs: %v->%v, want %v->%v", got.SrcIP, got.DstIP, f.SrcIP, f.DstIP)
	}
	if got.SrcPort != f.SrcPort || got.DstPort != f.DstPort {
		t.Fatalf("ports wrong: %d->%d", got.SrcPort, got.DstPort)
	}
	if got.Seq != f.Seq || got.Ack != f.Ack || got.Flags != f.Flags {
		t.Fatalf("tcp fields wrong: seq=%d ack=%d flags=%d", got.Seq, got.Ack, got.Flags)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("payload mismatch: %q", got.Payload)
	}
}

func TestEncodeFrameRejectsIPv6(t *testing.T) {
	f := &Frame{SrcIP: netip.MustParseAddr("::1"), DstIP: netip.MustParseAddr("10.0.0.1")}
	if _, err := EncodeFrame(f); err == nil {
		t.Fatal("expected error for IPv6 source")
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if err := DecodeFrameInto(&Frame{}, []byte{1, 2, 3}); err == nil {
		t.Fatal("short frame must error")
	}
	// Valid frame but with UDP protocol.
	f := &Frame{
		SrcIP: netip.MustParseAddr("10.0.0.1"),
		DstIP: netip.MustParseAddr("10.0.0.2"),
	}
	data, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	data[ethernetHeaderLen+9] = 17 // UDP
	if err := DecodeFrameInto(&Frame{}, data); err == nil {
		t.Fatal("non-TCP frame must error")
	}
	// Wrong ethertype.
	data2, _ := EncodeFrame(f)
	data2[12], data2[13] = 0x86, 0xdd
	if err := DecodeFrameInto(&Frame{}, data2); err == nil {
		t.Fatal("non-IPv4 ethertype must error")
	}
}

func TestIPChecksum(t *testing.T) {
	// RFC 1071 example-style check: checksum of header including its own
	// checksum field must verify to zero.
	f := &Frame{
		SrcIP: netip.MustParseAddr("192.168.1.10"),
		DstIP: netip.MustParseAddr("8.8.8.8"),
	}
	data, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	ip := data[ethernetHeaderLen : ethernetHeaderLen+ipv4HeaderLen]
	if ipChecksum(ip) != 0 {
		t.Fatalf("IP checksum does not verify: %#x", ipChecksum(ip))
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{
		SrcIP:   netip.MustParseAddr("1.1.1.1"),
		DstIP:   netip.MustParseAddr("2.2.2.2"),
		SrcPort: 1000,
		DstPort: 80,
	}
	r := k.Reverse()
	if r.SrcIP != k.DstIP || r.DstPort != k.SrcPort {
		t.Fatalf("reverse wrong: %v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse must be identity")
	}
	if k.String() != "1.1.1.1:1000->2.2.2.2:80" {
		t.Fatalf("string = %q", k.String())
	}
}

// collecting returns an Assembler and the streams it has closed so far,
// copied out of its buffers in the order they were shown to the sink.
func collecting() (*Assembler, *[]*Stream) {
	out := new([]*Stream)
	return NewAssembler(func(a, b *Stream) {
		*out = append(*out, a.clone())
		if b != nil {
			*out = append(*out, b.clone())
		}
	}), out
}

func mkDataFrame(seq uint32, payload string, syn bool) *Frame {
	flags := uint8(FlagACK)
	if syn {
		flags = FlagSYN
	}
	return &Frame{
		SrcIP:   netip.MustParseAddr("10.0.0.1"),
		DstIP:   netip.MustParseAddr("10.0.0.2"),
		SrcPort: 1234,
		DstPort: 80,
		Seq:     seq,
		Flags:   flags,
		Payload: []byte(payload),
	}
}

func TestReassemblyInOrder(t *testing.T) {
	a, out := collecting()
	a.Feed(mkDataFrame(100, "", true), baseTime)
	a.Feed(mkDataFrame(101, "hello ", false), baseTime.Add(time.Millisecond))
	a.Feed(mkDataFrame(107, "world", false), baseTime.Add(2*time.Millisecond))
	a.Flush()
	streams := *out
	if len(streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(streams))
	}
	if string(streams[0].Data) != "hello world" {
		t.Fatalf("data = %q", streams[0].Data)
	}
	if !streams[0].FirstSeen.Equal(baseTime.Add(time.Millisecond)) {
		t.Fatalf("first seen = %v", streams[0].FirstSeen)
	}
}

func TestReassemblyOutOfOrderAndDup(t *testing.T) {
	a, out := collecting()
	a.Feed(mkDataFrame(100, "", true), baseTime)
	a.Feed(mkDataFrame(107, "world", false), baseTime.Add(2*time.Millisecond))
	a.Feed(mkDataFrame(101, "hello ", false), baseTime.Add(3*time.Millisecond))
	a.Feed(mkDataFrame(101, "hello ", false), baseTime.Add(4*time.Millisecond)) // retransmit
	a.Feed(mkDataFrame(104, "lo wor", false), baseTime.Add(5*time.Millisecond)) // overlap
	a.Flush()
	streams := *out
	if len(streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(streams))
	}
	if string(streams[0].Data) != "hello world" {
		t.Fatalf("data = %q, want %q", streams[0].Data, "hello world")
	}
}

func TestReassemblyMidStreamCapture(t *testing.T) {
	// No SYN observed: first data segment defines the origin.
	a, out := collecting()
	a.Feed(mkDataFrame(5000, "abc", false), baseTime)
	a.Feed(mkDataFrame(5003, "def", false), baseTime.Add(time.Millisecond))
	a.Flush()
	streams := *out
	if len(streams) != 1 || string(streams[0].Data) != "abcdef" {
		t.Fatalf("mid-stream reassembly wrong: %+v", streams)
	}
}

func TestStreamTimeAt(t *testing.T) {
	a, out := collecting()
	a.Feed(mkDataFrame(100, "", true), baseTime)
	a.Feed(mkDataFrame(101, "aaaa", false), baseTime.Add(time.Millisecond))
	a.Feed(mkDataFrame(105, "bbbb", false), baseTime.Add(5*time.Millisecond))
	a.Flush()
	s := (*out)[0]
	if got := s.TimeAt(0); !got.Equal(baseTime.Add(time.Millisecond)) {
		t.Fatalf("TimeAt(0) = %v", got)
	}
	if got := s.TimeAt(5); !got.Equal(baseTime.Add(5 * time.Millisecond)) {
		t.Fatalf("TimeAt(5) = %v", got)
	}
	if got := s.TimeAt(400); !got.Equal(baseTime.Add(5 * time.Millisecond)) {
		t.Fatalf("TimeAt(overrun) = %v", got)
	}
}

func TestBuildConversationRoundTrip(t *testing.T) {
	conv := Conversation{
		ClientIP:   netip.MustParseAddr("10.0.0.7"),
		ServerIP:   netip.MustParseAddr("203.0.113.9"),
		ClientPort: 50000,
		ServerPort: 80,
		Exchanges: []Exchange{
			{ClientToServer: true, Payload: []byte("GET /a HTTP/1.1\r\n\r\n"), Timestamp: baseTime},
			{ClientToServer: false, Payload: bytes.Repeat([]byte("X"), 5000), Timestamp: baseTime.Add(30 * time.Millisecond)},
			{ClientToServer: true, Payload: []byte("GET /b HTTP/1.1\r\n\r\n"), Timestamp: baseTime.Add(60 * time.Millisecond)},
		},
	}
	pkts, err := BuildConversation(conv)
	if err != nil {
		t.Fatal(err)
	}
	// 5000-byte payload must be split into multiple segments.
	if len(pkts) < 8 {
		t.Fatalf("too few packets: %d", len(pkts))
	}
	streams, _ := AssembleStreamsInto(nil, pkts)
	if len(streams) != 2 {
		t.Fatalf("streams = %d, want 2", len(streams))
	}
	var c2s, s2c *Stream
	for _, s := range streams {
		if s.Key.DstPort == 80 {
			c2s = s
		} else {
			s2c = s
		}
	}
	if c2s == nil || s2c == nil {
		t.Fatal("missing direction")
	}
	if string(c2s.Data) != "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n" {
		t.Fatalf("client stream = %q", c2s.Data)
	}
	if len(s2c.Data) != 5000 {
		t.Fatalf("server stream len = %d, want 5000", len(s2c.Data))
	}
}

func TestWriteConversationsMergesByTime(t *testing.T) {
	mk := func(port uint16, at time.Time) Conversation {
		return Conversation{
			ClientIP:   netip.MustParseAddr("10.0.0.7"),
			ServerIP:   netip.MustParseAddr("203.0.113.9"),
			ClientPort: port,
			ServerPort: 80,
			Exchanges: []Exchange{
				{ClientToServer: true, Payload: []byte("x"), Timestamp: at},
			},
		}
	}
	var buf bytes.Buffer
	err := WriteConversations(&buf, []Conversation{
		mk(50001, baseTime.Add(time.Second)),
		mk(50002, baseTime),
	})
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadAllAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pkts); i++ {
		if pkts[i].Timestamp.Before(pkts[i-1].Timestamp) {
			t.Fatalf("packets not time-ordered at %d", i)
		}
	}

	// Hundreds of conversations over the same window, as a multi-client
	// capture renders them: every conversation uses the same timestamps, so
	// the merge interleaves all of them and every instant is a tie.
	overlapping := func(n int) []Conversation {
		convs := make([]Conversation, n)
		for i := range convs {
			convs[i] = mk(uint16(40000+i), baseTime)
			for j := 1; j < 100; j++ {
				convs[i].Exchanges = append(convs[i].Exchanges, Exchange{
					ClientToServer: j%2 == 0, Payload: []byte("x"),
					Timestamp: baseTime.Add(time.Duration(j) * time.Millisecond),
				})
			}
		}
		return convs
	}
	// timed returns one merge's wall time, after a collection so the
	// previous run's garbage is not charged to it.
	timed := func(convs []Conversation) time.Duration {
		runtime.GC()
		buf.Reset()
		start := time.Now()
		if err := WriteConversations(&buf, convs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// The small and large runs alternate and each side keeps its fastest
	// of fifteen, so load from other processes hits both sides alike and a
	// scheduling hiccup does not pass for an algorithmic cost. The large
	// run goes last: its output is checked below.
	smallIn, largeIn := overlapping(100), overlapping(400)
	small, large := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for run := 0; run < 15; run++ {
		small = min(small, timed(smallIn))
		large = min(large, timed(largeIn))
	}
	pkts, err = ReadAllAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := 400 * (100 + 5); len(pkts) != want {
		t.Fatalf("merged %d packets, want %d", len(pkts), want)
	}
	prevPort := uint16(0)
	for i := range pkts {
		var f Frame
		if err := DecodeFrameInto(&f, pkts[i].Data); err != nil {
			t.Fatal(err)
		}
		port := f.SrcPort
		if port == 80 {
			port = f.DstPort
		}
		if i > 0 && pkts[i].Timestamp.Before(pkts[i-1].Timestamp) {
			t.Fatalf("packets not time-ordered at %d", i)
		}
		if i > 0 && pkts[i].Timestamp.Equal(pkts[i-1].Timestamp) && port < prevPort {
			t.Fatalf("tie at %d broken out of conversation order: port %d after %d", i, port, prevPort)
		}
		prevPort = port
	}
	// Four times the conversations is four times the packets: an n log n
	// merge costs about 4.5x, a quadratic one 16x.
	if large > 8*small {
		t.Fatalf("merging 400 overlapping conversations took %v, %.1fx the %v of 100: the merge is quadratic",
			large, float64(large)/float64(small), small)
	}
}

func TestBuildConversationEmpty(t *testing.T) {
	if _, err := BuildConversation(Conversation{}); err == nil {
		t.Fatal("expected error for empty conversation")
	}
}

// Property: any payload split into random segments, fed in random order
// with random duplication, reassembles to the original.
func TestReassemblyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4000)
		orig := make([]byte, n)
		r.Read(orig)
		// Split into segments.
		type piece struct {
			off int
			buf []byte
		}
		var pieces []piece
		for off := 0; off < n; {
			l := 1 + r.Intn(600)
			if off+l > n {
				l = n - off
			}
			pieces = append(pieces, piece{off, orig[off : off+l]})
			off += l
		}
		// Duplicate some pieces.
		for i := 0; i < len(pieces)/3; i++ {
			pieces = append(pieces, pieces[r.Intn(len(pieces))])
		}
		r.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
		a, out := collecting()
		a.Feed(mkDataFrame(100, "", true), baseTime)
		for i, p := range pieces {
			fr := mkDataFrame(101+uint32(p.off), string(p.buf), false)
			a.Feed(fr, baseTime.Add(time.Duration(i)*time.Millisecond))
		}
		a.Flush()
		streams := *out
		return len(streams) == 1 && bytes.Equal(streams[0].Data, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: pcap write/read round-trips arbitrary packet data.
func TestPcapRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		ts := baseTime
		for _, p := range payloads {
			if len(p) > defaultSnapLen {
				p = p[:defaultSnapLen]
			}
			if err := w.WritePacket(Packet{Timestamp: ts, Data: p}); err != nil {
				return false
			}
			ts = ts.Add(time.Millisecond)
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ReadAllAuto(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if len(got) != len(payloads) {
			return false
		}
		for i := range got {
			want := payloads[i]
			if len(want) > defaultSnapLen {
				want = want[:defaultSnapLen]
			}
			if !bytes.Equal(got[i].Data, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIPv6FrameRoundTrip(t *testing.T) {
	f := &Frame{
		SrcIP:   netip.MustParseAddr("2001:db8::1"),
		DstIP:   netip.MustParseAddr("2001:db8::2"),
		SrcPort: 50000,
		DstPort: 80,
		Seq:     111,
		Ack:     222,
		Flags:   FlagACK | FlagPSH,
		Payload: []byte("GET /v6 HTTP/1.1\r\nHost: six.example\r\n\r\n"),
	}
	data, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	var got Frame
	if err := DecodeFrameInto(&got, data); err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != f.SrcIP || got.DstIP != f.DstIP {
		t.Fatalf("addrs: %v -> %v", got.SrcIP, got.DstIP)
	}
	if got.SrcPort != f.SrcPort || got.Seq != f.Seq || got.Flags != f.Flags {
		t.Fatalf("tcp fields wrong: %+v", got)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestIPv6MixedFamilyRejected(t *testing.T) {
	f := &Frame{
		SrcIP: netip.MustParseAddr("2001:db8::1"),
		DstIP: netip.MustParseAddr("10.0.0.1"),
	}
	if _, err := EncodeFrame(f); err == nil {
		t.Fatal("mixed families must error")
	}
}

func TestIPv6ExtensionHeaderWalk(t *testing.T) {
	f := &Frame{
		SrcIP:   netip.MustParseAddr("2001:db8::10"),
		DstIP:   netip.MustParseAddr("2001:db8::20"),
		SrcPort: 1234,
		DstPort: 80,
		Payload: []byte("x"),
	}
	data, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	// Splice in a hop-by-hop extension header (8 bytes) before the TCP
	// segment: set next-header to 0 and insert ext header whose own
	// next-header is TCP.
	ip := data[ethernetHeaderLen:]
	ext := make([]byte, 8)
	ext[0] = protoTCP // next header after extension
	ext[1] = 0        // length: 8 bytes total
	spliced := append([]byte{}, data[:ethernetHeaderLen+ipv6HeaderLen]...)
	spliced = append(spliced, ext...)
	spliced = append(spliced, ip[ipv6HeaderLen:]...)
	spliced[ethernetHeaderLen+6] = 0 // hop-by-hop
	// Fix payload length (+8).
	plen := binary.BigEndian.Uint16(spliced[ethernetHeaderLen+4:])
	binary.BigEndian.PutUint16(spliced[ethernetHeaderLen+4:], plen+8)

	var got Frame
	if err := DecodeFrameInto(&got, spliced); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, []byte("x")) {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestIPv6ReassemblyEndToEnd(t *testing.T) {
	// A full v6 conversation through the assembler.
	a, out := collecting()
	mk := func(seq uint32, payload string, syn bool) *Frame {
		flags := uint8(FlagACK)
		if syn {
			flags = FlagSYN
		}
		return &Frame{
			SrcIP: netip.MustParseAddr("2001:db8::a"), DstIP: netip.MustParseAddr("2001:db8::b"),
			SrcPort: 40000, DstPort: 80, Seq: seq, Flags: flags, Payload: []byte(payload),
		}
	}
	a.Feed(mk(10, "", true), baseTime)
	a.Feed(mk(11, "hello-", false), baseTime.Add(time.Millisecond))
	a.Feed(mk(17, "v6", false), baseTime.Add(2*time.Millisecond))
	a.Flush()
	streams := *out
	if len(streams) != 1 || string(streams[0].Data) != "hello-v6" {
		t.Fatalf("v6 reassembly: %+v", streams)
	}
}
