package pcap

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Protocol numbers and header constants.
const (
	etherTypeIPv4 = 0x0800
	etherTypeIPv6 = 0x86DD
	protoTCP      = 6

	ethernetHeaderLen = 14
	ipv4HeaderLen     = 20
	ipv6HeaderLen     = 40
	tcpHeaderLen      = 20
)

// IPv6 extension headers that may precede the transport header.
var ipv6ExtensionHeaders = map[byte]bool{
	0:  true, // hop-by-hop
	43: true, // routing
	60: true, // destination options
}

// TCP flag bits.
const (
	FlagFIN = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// Frame is a decoded Ethernet/IPv4/TCP frame.
type Frame struct {
	SrcMAC  [6]byte
	DstMAC  [6]byte
	SrcIP   netip.Addr
	DstIP   netip.Addr
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Payload []byte
}

// FlowKey identifies one direction of a TCP conversation.
type FlowKey struct {
	SrcIP   netip.Addr
	DstIP   netip.Addr
	SrcPort uint16
	DstPort uint16
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// Canonical returns the key both directions of k's conversation share — k
// or its reverse, whichever has the lower endpoint (by address, then port)
// as the source — and whether k is the reversed one.
func (k FlowKey) Canonical() (ck FlowKey, reversed bool) {
	if c := k.SrcIP.Compare(k.DstIP); c < 0 || (c == 0 && k.SrcPort <= k.DstPort) {
		return k, false
	}
	return k.Reverse(), true
}

// String renders the flow as "src:port->dst:port".
func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d->%s:%d", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort)
}

// Key returns the flow key of the frame's direction.
func (f *Frame) Key() FlowKey {
	return FlowKey{SrcIP: f.SrcIP, DstIP: f.DstIP, SrcPort: f.SrcPort, DstPort: f.DstPort}
}

// ipChecksum computes the ones-complement checksum over hdr.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	if len(hdr)%2 == 1 {
		sum += uint32(hdr[len(hdr)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// EncodeFrame serializes f into Ethernet/IP/TCP wire bytes. IPv4 and IPv6
// source/destination pairs are supported (mixed families are not). The
// IPv4 header checksum is computed; the TCP checksum is computed over the
// standard pseudo-header.
func EncodeFrame(f *Frame) ([]byte, error) {
	if f.SrcIP.Is6() && !f.SrcIP.Is4In6() {
		return encodeFrame6(f)
	}
	if !f.SrcIP.Is4() || !f.DstIP.Is4() {
		return nil, fmt.Errorf("pcap: encode requires same-family addresses, got %s -> %s", f.SrcIP, f.DstIP)
	}
	total := ethernetHeaderLen + ipv4HeaderLen + tcpHeaderLen + len(f.Payload)
	buf := make([]byte, total)

	// Ethernet.
	copy(buf[0:6], f.DstMAC[:])
	copy(buf[6:12], f.SrcMAC[:])
	binary.BigEndian.PutUint16(buf[12:], etherTypeIPv4)

	// IPv4.
	ip := buf[ethernetHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	ipLen := ipv4HeaderLen + tcpHeaderLen + len(f.Payload)
	binary.BigEndian.PutUint16(ip[2:], uint16(ipLen))
	ip[8] = 64 // TTL
	ip[9] = protoTCP
	src4 := f.SrcIP.As4()
	dst4 := f.DstIP.As4()
	copy(ip[12:16], src4[:])
	copy(ip[16:20], dst4[:])
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:ipv4HeaderLen]))

	// TCP.
	tcp := ip[ipv4HeaderLen:]
	binary.BigEndian.PutUint16(tcp[0:], f.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:], f.DstPort)
	binary.BigEndian.PutUint32(tcp[4:], f.Seq)
	binary.BigEndian.PutUint32(tcp[8:], f.Ack)
	tcp[12] = (tcpHeaderLen / 4) << 4 // data offset
	tcp[13] = f.Flags
	binary.BigEndian.PutUint16(tcp[14:], 65535) // window
	copy(tcp[tcpHeaderLen:], f.Payload)

	// TCP checksum over pseudo-header + segment.
	pseudo := make([]byte, 12+tcpHeaderLen+len(f.Payload))
	copy(pseudo[0:4], src4[:])
	copy(pseudo[4:8], dst4[:])
	pseudo[9] = protoTCP
	binary.BigEndian.PutUint16(pseudo[10:], uint16(tcpHeaderLen+len(f.Payload)))
	copy(pseudo[12:], tcp[:tcpHeaderLen+len(f.Payload)])
	binary.BigEndian.PutUint16(tcp[16:], ipChecksum(pseudo))

	return buf, nil
}

// encodeFrame6 serializes an IPv6/TCP frame.
func encodeFrame6(f *Frame) ([]byte, error) {
	if !f.SrcIP.Is6() || !f.DstIP.Is6() || f.DstIP.Is4In6() {
		return nil, fmt.Errorf("pcap: encode requires same-family addresses, got %s -> %s", f.SrcIP, f.DstIP)
	}
	total := ethernetHeaderLen + ipv6HeaderLen + tcpHeaderLen + len(f.Payload)
	buf := make([]byte, total)
	copy(buf[0:6], f.DstMAC[:])
	copy(buf[6:12], f.SrcMAC[:])
	binary.BigEndian.PutUint16(buf[12:], etherTypeIPv6)

	ip := buf[ethernetHeaderLen:]
	ip[0] = 6 << 4
	binary.BigEndian.PutUint16(ip[4:], uint16(tcpHeaderLen+len(f.Payload)))
	ip[6] = protoTCP
	ip[7] = 64 // hop limit
	src16 := f.SrcIP.As16()
	dst16 := f.DstIP.As16()
	copy(ip[8:24], src16[:])
	copy(ip[24:40], dst16[:])

	tcp := ip[ipv6HeaderLen:]
	binary.BigEndian.PutUint16(tcp[0:], f.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:], f.DstPort)
	binary.BigEndian.PutUint32(tcp[4:], f.Seq)
	binary.BigEndian.PutUint32(tcp[8:], f.Ack)
	tcp[12] = (tcpHeaderLen / 4) << 4
	tcp[13] = f.Flags
	binary.BigEndian.PutUint16(tcp[14:], 65535)
	copy(tcp[tcpHeaderLen:], f.Payload)

	// TCP checksum over the IPv6 pseudo-header.
	pseudo := make([]byte, 40+tcpHeaderLen+len(f.Payload))
	copy(pseudo[0:16], src16[:])
	copy(pseudo[16:32], dst16[:])
	binary.BigEndian.PutUint32(pseudo[32:], uint32(tcpHeaderLen+len(f.Payload)))
	pseudo[39] = protoTCP
	copy(pseudo[40:], tcp[:tcpHeaderLen+len(f.Payload)])
	binary.BigEndian.PutUint16(tcp[16:], ipChecksum(pseudo))
	return buf, nil
}

// DecodeFrameInto resets f and parses Ethernet/IP/TCP wire bytes (IPv4 or
// IPv6) into it, so a caller can reuse one Frame across a whole capture.
// Frames that do not carry TCP over IP over Ethernet yield an error;
// callers typically skip them. The decoded payload aliases data.
func DecodeFrameInto(f *Frame, data []byte) error {
	*f = Frame{}
	if len(data) < ethernetHeaderLen+ipv4HeaderLen+tcpHeaderLen {
		return fmt.Errorf("pcap: frame too short (%d bytes)", len(data))
	}
	copy(f.DstMAC[:], data[0:6])
	copy(f.SrcMAC[:], data[6:12])
	switch binary.BigEndian.Uint16(data[12:]) {
	case etherTypeIPv4:
	case etherTypeIPv6:
		_, err := decodeFrame6(f, data[ethernetHeaderLen:])
		return err
	default:
		return fmt.Errorf("pcap: not IP (ethertype %#x)", binary.BigEndian.Uint16(data[12:]))
	}
	ip := data[ethernetHeaderLen:]
	ihl := int(ip[0]&0x0f) * 4
	if ip[0]>>4 != 4 || ihl < ipv4HeaderLen || len(ip) < ihl {
		return fmt.Errorf("pcap: bad IPv4 header")
	}
	if ip[9] != protoTCP {
		return fmt.Errorf("pcap: not TCP (proto %d)", ip[9])
	}
	ipLen := int(binary.BigEndian.Uint16(ip[2:]))
	if ipLen > len(ip) || ipLen < ihl+tcpHeaderLen {
		return fmt.Errorf("pcap: bad IPv4 total length %d", ipLen)
	}
	f.SrcIP = netip.AddrFrom4([4]byte(ip[12:16]))
	f.DstIP = netip.AddrFrom4([4]byte(ip[16:20]))

	tcp := ip[ihl:ipLen]
	if len(tcp) < tcpHeaderLen {
		return fmt.Errorf("pcap: truncated TCP header")
	}
	dataOff := int(tcp[12]>>4) * 4
	if dataOff < tcpHeaderLen || dataOff > len(tcp) {
		return fmt.Errorf("pcap: bad TCP data offset %d", dataOff)
	}
	f.SrcPort = binary.BigEndian.Uint16(tcp[0:])
	f.DstPort = binary.BigEndian.Uint16(tcp[2:])
	f.Seq = binary.BigEndian.Uint32(tcp[4:])
	f.Ack = binary.BigEndian.Uint32(tcp[8:])
	f.Flags = tcp[13]
	f.Payload = tcp[dataOff:]
	return nil
}

// decodeFrame6 parses the IPv6 portion of a frame, walking any leading
// extension headers to the TCP segment.
func decodeFrame6(f *Frame, ip []byte) (*Frame, error) {
	if len(ip) < ipv6HeaderLen {
		return nil, fmt.Errorf("pcap: truncated IPv6 header")
	}
	if ip[0]>>4 != 6 {
		return nil, fmt.Errorf("pcap: bad IPv6 version")
	}
	payloadLen := int(binary.BigEndian.Uint16(ip[4:]))
	f.SrcIP = netip.AddrFrom16([16]byte(ip[8:24]))
	f.DstIP = netip.AddrFrom16([16]byte(ip[24:40]))

	next := ip[6]
	rest := ip[ipv6HeaderLen:]
	if payloadLen <= len(rest) {
		rest = rest[:payloadLen]
	}
	for ipv6ExtensionHeaders[next] {
		if len(rest) < 8 {
			return nil, fmt.Errorf("pcap: truncated IPv6 extension header")
		}
		next = rest[0]
		extLen := 8 + int(rest[1])*8
		if extLen > len(rest) {
			return nil, fmt.Errorf("pcap: IPv6 extension header overruns packet")
		}
		rest = rest[extLen:]
	}
	if next != protoTCP {
		return nil, fmt.Errorf("pcap: not TCP (next header %d)", next)
	}
	tcp := rest
	if len(tcp) < tcpHeaderLen {
		return nil, fmt.Errorf("pcap: truncated TCP header")
	}
	dataOff := int(tcp[12]>>4) * 4
	if dataOff < tcpHeaderLen || dataOff > len(tcp) {
		return nil, fmt.Errorf("pcap: bad TCP data offset %d", dataOff)
	}
	f.SrcPort = binary.BigEndian.Uint16(tcp[0:])
	f.DstPort = binary.BigEndian.Uint16(tcp[2:])
	f.Seq = binary.BigEndian.Uint32(tcp[4:])
	f.Ack = binary.BigEndian.Uint32(tcp[8:])
	f.Flags = tcp[13]
	f.Payload = tcp[dataOff:]
	return f, nil
}
