package pcap

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"
)

// Exchange is one application-level send within a TCP conversation.
type Exchange struct {
	ClientToServer bool
	Payload        []byte
	Timestamp      time.Time
}

// Conversation describes a full TCP conversation to synthesize: SYN
// handshake, a series of payload-bearing segments, and a FIN teardown.
type Conversation struct {
	ClientIP   netip.Addr
	ServerIP   netip.Addr
	ClientPort uint16
	ServerPort uint16
	Exchanges  []Exchange
}

// maxSegment is the synthetic MSS: payloads larger than this are split
// across several frames so reassembly is genuinely exercised.
const maxSegment = 1400

// BuildConversation renders the conversation into capture-ready packets:
// a three-way handshake, MSS-sized data segments with correct cumulative
// sequence/ack numbers, and a FIN from the client. Timestamps of control
// packets are derived from the surrounding exchanges.
func BuildConversation(c Conversation) ([]Packet, error) {
	if len(c.Exchanges) == 0 {
		return nil, fmt.Errorf("pcap: conversation has no exchanges")
	}
	clientMAC := [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	serverMAC := [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}

	var (
		pkts      []Packet
		clientSeq = uint32(1000)
		serverSeq = uint32(5000)
	)
	start := c.Exchanges[0].Timestamp

	emit := func(fromClient bool, flags uint8, payload []byte, ts time.Time) error {
		f := &Frame{Flags: flags, Payload: payload}
		if fromClient {
			f.SrcMAC, f.DstMAC = clientMAC, serverMAC
			f.SrcIP, f.DstIP = c.ClientIP, c.ServerIP
			f.SrcPort, f.DstPort = c.ClientPort, c.ServerPort
			f.Seq, f.Ack = clientSeq, serverSeq
		} else {
			f.SrcMAC, f.DstMAC = serverMAC, clientMAC
			f.SrcIP, f.DstIP = c.ServerIP, c.ClientIP
			f.SrcPort, f.DstPort = c.ServerPort, c.ClientPort
			f.Seq, f.Ack = serverSeq, clientSeq
		}
		data, err := EncodeFrame(f)
		if err != nil {
			return err
		}
		pkts = append(pkts, Packet{Timestamp: ts, Data: data})
		advance := uint32(len(payload))
		if flags&(FlagSYN|FlagFIN) != 0 {
			advance++
		}
		if fromClient {
			clientSeq += advance
		} else {
			serverSeq += advance
		}
		return nil
	}

	// Three-way handshake just before the first exchange.
	hsTime := start.Add(-3 * time.Millisecond)
	if err := emit(true, FlagSYN, nil, hsTime); err != nil {
		return nil, err
	}
	if err := emit(false, FlagSYN|FlagACK, nil, hsTime.Add(time.Millisecond)); err != nil {
		return nil, err
	}
	if err := emit(true, FlagACK, nil, hsTime.Add(2*time.Millisecond)); err != nil {
		return nil, err
	}

	last := start
	for _, ex := range c.Exchanges {
		payload := ex.Payload
		ts := ex.Timestamp
		for len(payload) > 0 {
			n := len(payload)
			if n > maxSegment {
				n = maxSegment
			}
			if err := emit(ex.ClientToServer, FlagACK|FlagPSH, payload[:n], ts); err != nil {
				return nil, err
			}
			payload = payload[n:]
			ts = ts.Add(200 * time.Microsecond)
		}
		if ts.After(last) {
			last = ts
		}
	}

	// Teardown.
	if err := emit(true, FlagFIN|FlagACK, nil, last.Add(time.Millisecond)); err != nil {
		return nil, err
	}
	if err := emit(false, FlagFIN|FlagACK, nil, last.Add(2*time.Millisecond)); err != nil {
		return nil, err
	}
	return pkts, nil
}

// WriteConversations renders every conversation, merges the packets in
// timestamp order, and writes a single pcap file to w.
func WriteConversations(w io.Writer, convs []Conversation) error {
	var all []Packet
	for i, c := range convs {
		pkts, err := BuildConversation(c)
		if err != nil {
			return fmt.Errorf("conversation %d: %w", i, err)
		}
		all = append(all, pkts...)
	}
	// Stable, so packets sharing a timestamp keep conversation order.
	sort.SliceStable(all, func(i, j int) bool { return all[i].Timestamp.Before(all[j].Timestamp) })
	pw := NewWriter(w)
	for _, p := range all {
		if err := pw.WritePacket(p); err != nil {
			return err
		}
	}
	return pw.Flush()
}
