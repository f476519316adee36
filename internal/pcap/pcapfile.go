// Package pcap implements the subset of the packet-capture toolchain that
// DynaMiner's offline analytics stage needs, from scratch on the standard
// library: the classic libpcap file format (read and write), Ethernet/IPv4/
// TCP encoding and decoding, TCP flow reassembly, and a conversation
// builder that turns byte-level client/server exchanges into valid capture
// files. The synthetic trace generator emits real pcap files through this
// package and the analytics stage re-parses them, so the byte-level path
// the paper's deep-packet-inspection pipeline exercises is preserved.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Classic pcap magic numbers, as a little-endian read of the file's first
// four bytes sees them: microsecond resolution (what this package writes),
// and nanosecond resolution (tcpdump --time-stamp-precision nano), each in
// either byte order.
const (
	magicLE     = 0xa1b2c3d4 // written natively little-endian by this package
	magicBE     = 0xd4c3b2a1
	magicNanoLE = 0xa1b23c4d
	magicNanoBE = 0x4d3cb2a1

	// LinkTypeEthernet is the only link type this package handles.
	LinkTypeEthernet = 1

	globalHeaderLen = 24
	recordHeaderLen = 16
	defaultSnapLen  = 262144

	// maxRecordLen bounds the packet bytes of one record whatever its
	// length field says, so a hostile length cannot size a buffer: the
	// Writer's own snapshot length.
	maxRecordLen = defaultSnapLen
	// windowLen is the reader's buffer: a few dozen full-size frames per
	// read of the underlying stream.
	windowLen = 64 << 10
)

// ErrBadMagic reports a file that does not start with a classic pcap magic.
var ErrBadMagic = errors.New("pcap: bad magic number")

// Packet is one captured frame with its capture timestamp.
type Packet struct {
	Timestamp time.Time
	Data      []byte // raw frame bytes starting at the link layer
}

// Writer emits a classic little-endian microsecond pcap file.
type Writer struct {
	w           io.Writer
	wroteHeader bool
	snapLen     uint32
}

// NewWriter returns a Writer targeting w. The global header is written
// lazily on the first packet (or by Flush on an empty capture).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, snapLen: defaultSnapLen}
}

func (pw *Writer) writeHeader() error {
	if pw.wroteHeader {
		return nil
	}
	var hdr [globalHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicLE)
	binary.LittleEndian.PutUint16(hdr[4:], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4) // version minor
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:], pw.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write global header: %w", err)
	}
	pw.wroteHeader = true
	return nil
}

// WritePacket appends one frame to the capture.
func (pw *Writer) WritePacket(p Packet) error {
	if err := pw.writeHeader(); err != nil {
		return err
	}
	if uint32(len(p.Data)) > pw.snapLen {
		return fmt.Errorf("pcap: packet length %d exceeds snaplen %d", len(p.Data), pw.snapLen)
	}
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(p.Timestamp.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(p.Timestamp.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(p.Data)))
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := pw.w.Write(p.Data); err != nil {
		return fmt.Errorf("pcap: write record body: %w", err)
	}
	return nil
}

// Flush makes sure the global header exists even for empty captures.
func (pw *Writer) Flush() error { return pw.writeHeader() }

// ErrRecordTooLong reports a packet record or block whose length field
// asks for more bytes than a packet of the capture may have.
var ErrRecordTooLong = errors.New("pcap: packet record longer than the capture allows")

// window is the one buffer every record of a capture is decoded out of: the
// unread bytes of r are buf[start:end]. It starts at windowLen bytes and
// grows only to hold a single record longer than that — which the readers
// bound before they ask for it — so its size never follows the capture's.
type window struct {
	r          io.Reader
	buf        []byte
	start, end int
	err        error // r's error, reported once the bytes read before it are used up
	idle       int   // consecutive reads that returned nothing
	keep       bool  // a full buffer is left to the records decoded out of it, not reused
}

func newWindow(r io.Reader) *window {
	return &window{r: r, buf: make([]byte, windowLen)}
}

// peek returns the next n bytes of r without consuming them; the slice is
// valid until the next call on the window. When r ends first the error is
// io.ReadFull's: io.EOF with nothing left, io.ErrUnexpectedEOF otherwise.
func (w *window) peek(n int) ([]byte, error) {
	for w.end-w.start < n {
		if w.err != nil {
			if w.err == io.EOF && w.end > w.start {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, w.err
		}
		if w.start+n > len(w.buf) {
			buf := w.buf
			if n > len(buf) {
				buf = make([]byte, max(n, 2*len(buf)))
			} else if w.keep {
				buf = make([]byte, len(buf))
			}
			w.end = copy(buf, w.buf[w.start:w.end])
			w.start, w.buf = 0, buf
		}
		m, err := w.r.Read(w.buf[w.end:])
		w.end += m
		w.err = err
		if m > 0 || err != nil {
			w.idle = 0
		} else if w.idle++; w.idle >= 100 {
			w.err = io.ErrNoProgress
		}
	}
	return w.buf[w.start : w.start+n], nil
}

// take is peek, consuming the bytes.
func (w *window) take(n int) ([]byte, error) {
	b, err := w.peek(n)
	w.start += len(b)
	return b, err
}

// discard consumes n bytes without holding more than a window of them.
func (w *window) discard(n int64) error {
	for n > 0 {
		if w.start == w.end {
			if _, err := w.peek(1); err != nil {
				return err
			}
		}
		k := int(min(n, int64(w.end-w.start)))
		w.start += k
		n -= int64(k)
	}
	return nil
}

// reader parses a classic pcap file in either byte order and either
// timestamp resolution.
type reader struct {
	w      *window
	order  binary.ByteOrder
	maxLen uint32 // longest record accepted: min(snaplen, maxRecordLen)
	tick   int64  // nanoseconds per unit of a record's sub-second field
}

// newReader validates the global header at the head of w.
func newReader(w *window) (*reader, error) {
	hdr, err := w.take(globalHeaderLen)
	if err != nil {
		return nil, fmt.Errorf("pcap: read global header: %w", err)
	}
	var order binary.ByteOrder
	tick := int64(1000)
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case magicLE:
		order = binary.LittleEndian
	case magicBE:
		order = binary.BigEndian
	case magicNanoLE:
		order, tick = binary.LittleEndian, 1
	case magicNanoBE:
		order, tick = binary.BigEndian, 1
	default:
		return nil, ErrBadMagic
	}
	if linkType := order.Uint32(hdr[20:]); linkType != LinkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", linkType)
	}
	return &reader{w: w, order: order, maxLen: min(order.Uint32(hdr[16:]), maxRecordLen), tick: tick}, nil
}

// next returns the next packet, or io.EOF at the end of the capture. The
// packet's Data is decoded in place: it is valid until the next call.
func (pr *reader) next() (Packet, error) {
	hdr, err := pr.w.take(recordHeaderLen)
	if err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: read record header: %w", err)
	}
	sec := pr.order.Uint32(hdr[0:])
	frac := pr.order.Uint32(hdr[4:])
	capLen := pr.order.Uint32(hdr[8:])
	if capLen > pr.maxLen {
		return Packet{}, fmt.Errorf("%w: record of %d bytes, limit %d", ErrRecordTooLong, capLen, pr.maxLen)
	}
	data, err := pr.w.take(int(capLen))
	if err != nil {
		return Packet{}, fmt.Errorf("pcap: read record body: %w", err)
	}
	return Packet{
		Timestamp: time.Unix(int64(sec), int64(frac)*pr.tick).UTC(),
		Data:      data,
	}, nil
}

// Scan decodes the capture on r — classic pcap or pcapng, told apart by the
// leading magic — and calls fn with each packet in file order. A packet's
// Data aliases the reader's one buffer and is valid only during the call.
func Scan(r io.Reader, fn func(Packet)) error { return scan(newWindow(r), fn) }

func scan(w *window, fn func(Packet)) error {
	magic, err := w.peek(4)
	if err != nil {
		return fmt.Errorf("pcap: read magic: %w", err)
	}
	var next func() (Packet, error)
	if binary.LittleEndian.Uint32(magic) == blockSHB {
		ng, err := newNGReader(w)
		if err != nil {
			return err
		}
		next = ng.next
	} else {
		pr, err := newReader(w)
		if err != nil {
			return err
		}
		next = pr.next
	}
	for {
		p, err := next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(p)
	}
}

// ReadAllAuto drains a capture of either format into memory: Scan, with the
// reader's buffers left to the packets decoded out of them instead of reused.
func ReadAllAuto(r io.Reader) ([]Packet, error) {
	var pkts []Packet
	w := newWindow(r)
	w.keep = true
	if err := scan(w, func(p Packet) { pkts = append(pkts, p) }); err != nil {
		return nil, err
	}
	return pkts, nil
}
