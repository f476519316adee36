package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

func TestNGWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewNGWriter(&buf)
	pkts := []Packet{
		{Timestamp: baseTime, Data: []byte{1, 2, 3, 4, 5}}, // needs padding
		{Timestamp: baseTime.Add(1500 * time.Microsecond), Data: bytes.Repeat([]byte{0xee}, 64)},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	ng, err := newNGReader(newWindow(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pkts {
		got, err := ng.next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("packet %d data mismatch", i)
		}
		if !got.Timestamp.Equal(want.Timestamp) {
			t.Fatalf("packet %d ts = %v, want %v", i, got.Timestamp, want.Timestamp)
		}
	}
	if _, err := ng.next(); err == nil {
		t.Fatal("expected EOF")
	}
}

func TestNGReaderRejectsClassic(t *testing.T) {
	var buf bytes.Buffer
	cw := NewWriter(&buf)
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := newNGReader(newWindow(bytes.NewReader(buf.Bytes()))); err == nil {
		t.Fatal("classic pcap must be rejected by the NG reader")
	}
}

func TestReadAllAutoBothFormats(t *testing.T) {
	payload := []byte{9, 9, 9, 9}

	var classic bytes.Buffer
	cw := NewWriter(&classic)
	if err := cw.WritePacket(Packet{Timestamp: baseTime, Data: payload}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllAuto(bytes.NewReader(classic.Bytes()))
	if err != nil || len(got) != 1 || !bytes.Equal(got[0].Data, payload) {
		t.Fatalf("classic auto-read: %v %v", got, err)
	}

	var ng bytes.Buffer
	nw := NewNGWriter(&ng)
	if err := nw.WritePacket(Packet{Timestamp: baseTime, Data: payload}); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAllAuto(bytes.NewReader(ng.Bytes()))
	if err != nil || len(got) != 1 || !bytes.Equal(got[0].Data, payload) {
		t.Fatalf("pcapng auto-read: %v %v", got, err)
	}
}

// appendBlock writes a raw little-endian pcapng block.
func appendBlock(buf *bytes.Buffer, blockType uint32, body []byte) {
	pad := (4 - len(body)%4) % 4
	total := uint32(12 + len(body) + pad)
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:], blockType)
	binary.LittleEndian.PutUint32(head[4:], total)
	buf.Write(head[:])
	buf.Write(body)
	buf.Write(make([]byte, pad))
	var trail [4]byte
	binary.LittleEndian.PutUint32(trail[:], total)
	buf.Write(trail[:])
}

func TestNGReaderSkipsUnknownBlocks(t *testing.T) {
	var buf bytes.Buffer
	w := NewNGWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Unknown/statistics block between header and packet.
	appendBlock(&buf, 0x00000005, make([]byte, 16))
	if err := w.WritePacket(Packet{Timestamp: baseTime, Data: []byte{7, 7}}); err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadAllAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 || !bytes.Equal(pkts[0].Data, []byte{7, 7}) {
		t.Fatalf("pkts = %v", pkts)
	}
}

func TestNGReaderSimplePacketBlock(t *testing.T) {
	var buf bytes.Buffer
	w := NewNGWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4+6)
	binary.LittleEndian.PutUint32(body[0:], 6)
	copy(body[4:], []byte{1, 2, 3, 4, 5, 6})
	appendBlock(&buf, blockSPB, body)
	pkts, err := ReadAllAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 || len(pkts[0].Data) != 6 {
		t.Fatalf("spb pkts = %v", pkts)
	}
}

func TestNGReaderTsResol(t *testing.T) {
	// Build a capture with if_tsresol = 3 (millisecond ticks).
	var buf bytes.Buffer
	shb := make([]byte, 16)
	binary.LittleEndian.PutUint32(shb[0:], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[4:], 1)
	for i := 8; i < 16; i++ {
		shb[i] = 0xff // unspecified section length
	}
	appendBlock(&buf, blockSHB, shb)

	idb := make([]byte, 8+8)
	binary.LittleEndian.PutUint16(idb[0:], LinkTypeEthernet)
	binary.LittleEndian.PutUint32(idb[4:], defaultSnapLen)
	// Option: if_tsresol(9), length 1, value 3, padded; then end-of-options.
	binary.LittleEndian.PutUint16(idb[8:], optTsResol)
	binary.LittleEndian.PutUint16(idb[10:], 1)
	idb[12] = 3
	appendBlock(&buf, blockIDB, idb)

	ts := baseTime.Truncate(time.Millisecond)
	ticks := uint64(ts.UnixMilli())
	epb := make([]byte, 20+4)
	binary.LittleEndian.PutUint32(epb[4:], uint32(ticks>>32))
	binary.LittleEndian.PutUint32(epb[8:], uint32(ticks))
	binary.LittleEndian.PutUint32(epb[12:], 4)
	binary.LittleEndian.PutUint32(epb[16:], 4)
	copy(epb[20:], []byte{1, 2, 3, 4})
	appendBlock(&buf, blockEPB, epb)

	pkts, err := ReadAllAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 {
		t.Fatalf("pkts = %d", len(pkts))
	}
	if !pkts[0].Timestamp.Equal(ts) {
		t.Fatalf("ts = %v, want %v", pkts[0].Timestamp, ts)
	}
}

func TestTsResolUnit(t *testing.T) {
	cases := map[byte]time.Duration{
		0:    time.Second,
		3:    time.Millisecond,
		6:    time.Microsecond,
		9:    time.Nanosecond,
		0x80: time.Second,
	}
	for v, want := range cases {
		if got := tsResolUnit(v); got != want {
			t.Errorf("tsResolUnit(%#x) = %v, want %v", v, got, want)
		}
	}
	// 2^-10 ticks: roughly a millisecond.
	if got := tsResolUnit(0x8a); got > time.Millisecond || got < 900*time.Microsecond {
		t.Errorf("tsResolUnit(0x8a) = %v", got)
	}
}

func TestNGReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewNGWriter(&buf)
	if err := w.WritePacket(Packet{Timestamp: baseTime, Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-6]
	ng, err := newNGReader(newWindow(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ng.next(); err == nil {
		t.Fatal("truncated capture must error")
	}
}
