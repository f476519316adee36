package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"runtime"
	"testing"
	"testing/iotest"
	"time"
)

// FuzzDecodeFrame shakes the layer decoder with arbitrary bytes: it must
// never panic, and any frame it accepts must re-encode losslessly enough
// to decode again.
func FuzzDecodeFrame(f *testing.F) {
	valid, _ := EncodeFrame(&Frame{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 1234, DstPort: 80, Payload: []byte("GET / HTTP/1.1\r\n\r\n"),
	})
	f.Add(valid)
	v6, _ := EncodeFrame(&Frame{
		SrcIP: netip.MustParseAddr("2001:db8::1"), DstIP: netip.MustParseAddr("2001:db8::2"),
		SrcPort: 1234, DstPort: 80, Payload: []byte("x"),
	})
	f.Add(v6)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 60))

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := DecodeFrameInto(&fr, data); err != nil {
			return
		}
		if fr.SrcIP.Is4() != fr.DstIP.Is4() {
			t.Fatalf("mixed address families decoded: %v -> %v", fr.SrcIP, fr.DstIP)
		}
	})
}

// FuzzReadAllAuto drives both capture-format readers with arbitrary bytes.
// The collecting reader and the streaming one must tell the same story —
// same packets, same error — and no length field in the input may size an
// allocation: both together stay under a constant (the two readers' 64 KiB
// windows and what one longest-allowed record can grow them to) plus four
// times the input.
func FuzzReadAllAuto(f *testing.F) {
	var classic bytes.Buffer
	w := NewWriter(&classic)
	_ = w.WritePacket(Packet{Timestamp: time.Unix(100, 0), Data: []byte{1, 2, 3, 4}})
	f.Add(classic.Bytes())

	var ng bytes.Buffer
	nw := NewNGWriter(&ng)
	_ = nw.WritePacket(Packet{Timestamp: time.Unix(100, 0), Data: []byte{1, 2, 3, 4}})
	f.Add(ng.Bytes())
	f.Add(nanoCapture(binary.BigEndian, []Packet{{Timestamp: time.Unix(100, 123456789), Data: []byte{1, 2, 3, 4}}}))
	f.Add([]byte("not a capture at all"))
	f.Add(hostileClassic(0xffffffff, 0xfffffff0))
	f.Add(hostileNG(blockEPB, 0xfffffff0))
	f.Add(hostileNG(0x00000005, 0xfffffff0))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pkts, err := ReadAllAuto(bytes.NewReader(data))
		var streamed []Packet
		streamErr := Scan(iotest.OneByteReader(bytes.NewReader(data)), func(p Packet) {
			p.Data = bytes.Clone(p.Data)
			streamed = append(streamed, p)
		})
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*(windowLen+2*maxBlockBody)+4*len(data)); got > limit {
			t.Fatalf("reading %d bytes allocated %d, want at most %d", len(data), got, limit)
		}
		if (err == nil) != (streamErr == nil) || (err != nil && err.Error() != streamErr.Error()) {
			t.Fatalf("collecting reader: %v; streaming reader: %v", err, streamErr)
		}
		if err != nil {
			if pkts != nil {
				t.Fatalf("%d packets returned beside the error %v", len(pkts), err)
			}
			return
		}
		if len(pkts) != len(streamed) {
			t.Fatalf("collecting reader: %d packets; streaming reader: %d", len(pkts), len(streamed))
		}
		for i, p := range pkts {
			if len(p.Data) > maxRecordLen {
				t.Fatalf("packet exceeds the record limit: %d", len(p.Data))
			}
			if !p.Timestamp.Equal(streamed[i].Timestamp) || !bytes.Equal(p.Data, streamed[i].Data) {
				t.Fatalf("packet %d differs between the collecting and the streaming reader", i)
			}
		}
	})
}

// hostileClassic is a 40-byte classic capture: a global header announcing
// snapLen and one record header asking for capLen bytes that never come.
func hostileClassic(snapLen, capLen uint32) []byte {
	b := make([]byte, globalHeaderLen+recordHeaderLen)
	binary.LittleEndian.PutUint32(b[0:], magicLE)
	binary.LittleEndian.PutUint32(b[16:], snapLen)
	binary.LittleEndian.PutUint32(b[20:], LinkTypeEthernet)
	binary.LittleEndian.PutUint32(b[globalHeaderLen+8:], capLen)
	return b
}

// hostileNG is the NGWriter's preamble followed by the 8-byte header of a
// block of the given type that claims totalLen bytes.
func hostileNG(blockType, totalLen uint32) []byte {
	var buf bytes.Buffer
	_ = NewNGWriter(&buf).Flush()
	b := binary.LittleEndian.AppendUint32(buf.Bytes(), blockType)
	return binary.LittleEndian.AppendUint32(b, totalLen)
}

// TestHostileLengthFieldsAllocateNothing is the regression test for the
// 40-byte file that asked for a 4 GB buffer: a packet record or block
// longer than a packet may be is ErrRecordTooLong before a byte of it is
// buffered, and a non-packet pcapng block of any length is skipped, not
// buffered.
func TestHostileLengthFieldsAllocateNothing(t *testing.T) {
	cases := map[string]struct {
		capture []byte
		tooLong bool
	}{
		"classic, within a hostile snaplen":  {hostileClassic(0xffffffff, 0xfffffff0), true},
		"classic, past the writer's snaplen": {hostileClassic(defaultSnapLen, maxRecordLen+1), true},
		"classic, past a small snaplen":      {hostileClassic(96, 97), true},
		"pcapng packet block":                {hostileNG(blockEPB, 0xfffffff0), true},
		"pcapng interface block":             {hostileNG(blockIDB, 0xfffffff0), true},
		"pcapng skipped block":               {hostileNG(0x00000005, 0xfffffff0), false},
	}
	for name, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pkts, err := ReadAllAuto(bytes.NewReader(tc.capture))
		runtime.ReadMemStats(&after)
		if err == nil || pkts != nil {
			t.Errorf("%s: %d packets, error %v; want an error", name, len(pkts), err)
		}
		if errors.Is(err, ErrRecordTooLong) != tc.tooLong {
			t.Errorf("%s: error %v; ErrRecordTooLong wanted: %v", name, err, tc.tooLong)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*windowLen {
			t.Errorf("%s: reading %d bytes allocated %d", name, len(tc.capture), got)
		}
	}
}
