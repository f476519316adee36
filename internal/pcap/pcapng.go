package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
)

// pcapng block types.
const (
	blockSHB = 0x0A0D0D0A // section header
	blockIDB = 0x00000001 // interface description
	blockSPB = 0x00000003 // simple packet
	blockEPB = 0x00000006 // enhanced packet

	byteOrderMagic = 0x1A2B3C4D
	optTsResol     = 9
	optEndOfOpts   = 0
)

// maxBlockBody bounds the body of a pcapng block that is read whole (packet
// and interface blocks): the longest packet plus 4 KiB of block fields,
// padding and options.
const maxBlockBody = maxRecordLen + 4096

// ngReader parses a pcapng capture: section header, interface description,
// and enhanced/simple packet blocks. Unknown block types are skipped, as
// the format prescribes. Multiple sections and interfaces are supported;
// only Ethernet interfaces yield packets.
type ngReader struct {
	w     *window
	order binary.ByteOrder
	// ifaces[i] describes interface i of the current section.
	ifaces []ngInterface
}

type ngInterface struct {
	linkType uint16
	tsUnit   time.Duration // duration of one timestamp tick
}

// newNGReader validates the section header at the head of w.
func newNGReader(w *window) (*ngReader, error) {
	ng := &ngReader{w: w}
	head, err := w.take(8)
	if err != nil {
		return nil, fmt.Errorf("pcapng: read section header: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:]) != blockSHB {
		return nil, ErrBadMagic
	}
	if err := ng.readSection([4]byte(head[4:])); err != nil {
		return nil, err
	}
	return ng, nil
}

// readSection consumes a section header block from its byte-order magic on
// (the block type and the raw length field rawLen are already read): it
// sets the section's byte order and forgets the previous section's
// interfaces.
func (ng *ngReader) readSection(rawLen [4]byte) error {
	magic, err := ng.w.take(4)
	if err != nil {
		return fmt.Errorf("pcapng: read section header: %w", err)
	}
	switch binary.LittleEndian.Uint32(magic) {
	case byteOrderMagic:
		ng.order = binary.LittleEndian
	case 0x4D3C2B1A:
		ng.order = binary.BigEndian
	default:
		return fmt.Errorf("pcapng: bad byte-order magic")
	}
	totalLen := ng.order.Uint32(rawLen[:])
	if totalLen < 28 || totalLen%4 != 0 {
		return fmt.Errorf("pcapng: bad section header length %d", totalLen)
	}
	// Version, section length, options and trailing length are not needed.
	if err := ng.w.discard(int64(totalLen - 12)); err != nil {
		return fmt.Errorf("pcapng: section header body: %w", err)
	}
	ng.ifaces = ng.ifaces[:0]
	return nil
}

// parseIDB registers an interface from an IDB block body (without the
// leading type/length and trailing length).
func (ng *ngReader) parseIDB(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("pcapng: short interface description")
	}
	iface := ngInterface{
		linkType: ng.order.Uint16(body[0:]),
		tsUnit:   time.Microsecond,
	}
	// Walk options for if_tsresol.
	opts := body[8:]
	for len(opts) >= 4 {
		code := ng.order.Uint16(opts[0:])
		length := int(ng.order.Uint16(opts[2:]))
		opts = opts[4:]
		if code == optEndOfOpts {
			break
		}
		if length > len(opts) {
			return fmt.Errorf("pcapng: option overruns block")
		}
		if code == optTsResol && length >= 1 {
			iface.tsUnit = tsResolUnit(opts[0])
		}
		// Options are padded to 4 bytes.
		pad := (4 - length%4) % 4
		if length+pad > len(opts) {
			break
		}
		opts = opts[length+pad:]
	}
	ng.ifaces = append(ng.ifaces, iface)
	return nil
}

// tsResolUnit decodes an if_tsresol byte: MSB clear means 10^-v seconds,
// MSB set means 2^-v seconds.
func tsResolUnit(v byte) time.Duration {
	if v&0x80 == 0 {
		d := time.Second
		for i := byte(0); i < v && d > 1; i++ {
			d /= 10
		}
		return d
	}
	exp := v & 0x7f
	return time.Duration(float64(time.Second) / math.Pow(2, float64(exp)))
}

// next returns the next packet, or io.EOF at the end of the capture. The
// packet's Data is decoded in place: it is valid until the next call.
func (ng *ngReader) next() (Packet, error) {
	for {
		head, err := ng.w.take(8)
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Packet{}, io.EOF
			}
			return Packet{}, fmt.Errorf("pcapng: read block header: %w", err)
		}
		blockType := ng.order.Uint32(head[0:])
		if blockType == blockSHB {
			// A new section may change the byte order, so its length is
			// decoded only once its magic is read.
			if err := ng.readSection([4]byte(head[4:])); err != nil {
				return Packet{}, err
			}
			continue
		}
		totalLen := ng.order.Uint32(head[4:])
		if totalLen < 12 || totalLen%4 != 0 {
			return Packet{}, fmt.Errorf("pcapng: bad block length %d", totalLen)
		}
		n := int64(totalLen - 12)
		var body, trail []byte
		switch blockType {
		case blockIDB, blockEPB, blockSPB:
			if n > maxBlockBody {
				return Packet{}, fmt.Errorf("%w: block of %d bytes, limit %d", ErrRecordTooLong, totalLen, maxBlockBody+12)
			}
			if _, err := ng.w.peek(int(n)); err != nil {
				return Packet{}, fmt.Errorf("pcapng: block body: %w", err)
			}
			buf, err := ng.w.take(int(n) + 4)
			if err != nil {
				return Packet{}, fmt.Errorf("pcapng: block trailer: %w", err)
			}
			body, trail = buf[:n], buf[n:]
		default:
			// Name resolution, statistics, custom blocks: skipped, never
			// buffered.
			if err := ng.w.discard(n); err != nil {
				return Packet{}, fmt.Errorf("pcapng: block body: %w", err)
			}
			if trail, err = ng.w.take(4); err != nil {
				return Packet{}, fmt.Errorf("pcapng: block trailer: %w", err)
			}
		}
		if ng.order.Uint32(trail) != totalLen {
			return Packet{}, fmt.Errorf("pcapng: trailer length mismatch")
		}

		var pkt Packet
		var ok bool
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
		if len(pkt.Data) > maxRecordLen {
			return Packet{}, fmt.Errorf("%w: packet of %d bytes, limit %d", ErrRecordTooLong, len(pkt.Data), maxRecordLen)
		}
		if ok {
			return pkt, nil
		}
	}
}

func (ng *ngReader) parseEPB(body []byte) (Packet, bool, error) {
	if len(body) < 20 {
		return Packet{}, false, fmt.Errorf("pcapng: short enhanced packet block")
	}
	ifID := ng.order.Uint32(body[0:])
	tsHigh := ng.order.Uint32(body[4:])
	tsLow := ng.order.Uint32(body[8:])
	capLen := ng.order.Uint32(body[12:])
	if int(capLen) > len(body)-20 {
		return Packet{}, false, fmt.Errorf("pcapng: packet overruns block")
	}
	if int(ifID) >= len(ng.ifaces) {
		return Packet{}, false, fmt.Errorf("pcapng: unknown interface %d", ifID)
	}
	iface := ng.ifaces[ifID]
	if iface.linkType != LinkTypeEthernet {
		return Packet{}, false, nil // skip non-Ethernet interfaces
	}
	ticks := uint64(tsHigh)<<32 | uint64(tsLow)
	return Packet{
		Timestamp: time.Unix(0, int64(ticks)*int64(iface.tsUnit)).UTC(),
		Data:      body[20 : 20+capLen],
	}, true, nil
}

func (ng *ngReader) parseSPB(body []byte) (Packet, bool, error) {
	if len(body) < 4 {
		return Packet{}, false, fmt.Errorf("pcapng: short simple packet block")
	}
	if len(ng.ifaces) == 0 {
		return Packet{}, false, fmt.Errorf("pcapng: simple packet before interface description")
	}
	if ng.ifaces[0].linkType != LinkTypeEthernet {
		return Packet{}, false, nil
	}
	origLen := int(ng.order.Uint32(body[0:]))
	data := body[4:]
	if origLen < len(data) {
		data = data[:origLen]
	}
	return Packet{Data: data}, true, nil
}

// NGWriter emits a little-endian pcapng capture with one Ethernet
// interface at nanosecond resolution (if_tsresol 9), so a packet's
// timestamp reads back exactly.
type NGWriter struct {
	w           io.Writer
	wroteHeader bool
}

// NewNGWriter returns an NGWriter targeting w.
func NewNGWriter(w io.Writer) *NGWriter { return &NGWriter{w: w} }

func (nw *NGWriter) writeHeader() error {
	if nw.wroteHeader {
		return nil
	}
	// Section header: 28 bytes, unspecified section length.
	shb := make([]byte, 28)
	binary.LittleEndian.PutUint32(shb[0:], blockSHB)
	binary.LittleEndian.PutUint32(shb[4:], 28)
	binary.LittleEndian.PutUint32(shb[8:], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[12:], 1) // major
	binary.LittleEndian.PutUint64(shb[16:], math.MaxUint64)
	binary.LittleEndian.PutUint32(shb[24:], 28)
	// Interface description: Ethernet, with one option, if_tsresol = 9
	// (10^-9 s ticks), padded to four bytes, and the end of options.
	idb := make([]byte, 32)
	binary.LittleEndian.PutUint32(idb[0:], blockIDB)
	binary.LittleEndian.PutUint32(idb[4:], 32)
	binary.LittleEndian.PutUint16(idb[8:], LinkTypeEthernet)
	binary.LittleEndian.PutUint32(idb[12:], defaultSnapLen)
	binary.LittleEndian.PutUint16(idb[16:], optTsResol)
	binary.LittleEndian.PutUint16(idb[18:], 1)
	idb[20] = 9
	// idb[24:28] is opt_endofopt: code 0, length 0.
	binary.LittleEndian.PutUint32(idb[28:], 32)
	if _, err := nw.w.Write(shb); err != nil {
		return fmt.Errorf("pcapng: write section header: %w", err)
	}
	if _, err := nw.w.Write(idb); err != nil {
		return fmt.Errorf("pcapng: write interface block: %w", err)
	}
	nw.wroteHeader = true
	return nil
}

// WritePacket appends one frame as an enhanced packet block.
func (nw *NGWriter) WritePacket(p Packet) error {
	if err := nw.writeHeader(); err != nil {
		return err
	}
	pad := (4 - len(p.Data)%4) % 4
	total := 32 + len(p.Data) + pad
	block := make([]byte, total)
	binary.LittleEndian.PutUint32(block[0:], blockEPB)
	binary.LittleEndian.PutUint32(block[4:], uint32(total))
	// Interface 0; nanosecond ticks.
	ticks := uint64(p.Timestamp.UnixNano())
	binary.LittleEndian.PutUint32(block[12:], uint32(ticks>>32))
	binary.LittleEndian.PutUint32(block[16:], uint32(ticks))
	binary.LittleEndian.PutUint32(block[20:], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(block[24:], uint32(len(p.Data)))
	copy(block[28:], p.Data)
	binary.LittleEndian.PutUint32(block[total-4:], uint32(total))
	if _, err := nw.w.Write(block); err != nil {
		return fmt.Errorf("pcapng: write packet block: %w", err)
	}
	return nil
}

// Flush ensures the section and interface headers exist for empty
// captures.
func (nw *NGWriter) Flush() error { return nw.writeHeader() }
