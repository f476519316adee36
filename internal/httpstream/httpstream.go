// Package httpstream extracts paired HTTP/1.x transactions from
// reassembled TCP streams. A Transaction is the unit the rest of DynaMiner
// reasons about: the web conversation graph is built from transactions, and
// the on-the-wire detector consumes a live transaction stream.
package httpstream

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"sort"
	"strings"
	"time"

	"dynaminer/internal/pcap"
)

// maxRetainedBody caps how much response body is kept on a Transaction.
// DynaMiner is payload-agnostic, but the WCG construction stage sniffs
// HTML and JS bodies for meta/JavaScript redirects, so a prefix of those
// is retained.
const maxRetainedBody = 64 * 1024

// Transaction is one HTTP request/response pair between a client and a
// server, with the header and timing attributes the WCG annotations need.
type Transaction struct {
	ClientIP   netip.Addr
	ServerIP   netip.Addr
	ClientPort uint16
	ServerPort uint16

	Method      string
	URI         string
	Host        string
	ReqHdr      http.Header
	ReqTime     time.Time
	ReqBodySize int // bytes uploaded with the request (exfiltration volume)

	StatusCode  int
	RespHdr     http.Header
	RespTime    time.Time
	ContentType string
	BodySize    int // response body bytes on the wire, kept or not
	// Body is a prefix of at most maxRetainedBody bytes (content-decoded
	// on the capture path) of a body whose ClassifyPayload(URI,
	// ContentType) CarriesRedirects — HTML or JS, the only bytes the
	// redirect sniffer reads. It is nil for every other class, whose body
	// is read, counted in BodySize and dropped.
	Body []byte
}

// The header accessors below read their canonical key directly, with
// http.Header.Get's first-value semantics: Get canonicalizes its key on
// every call, a cost paid per transaction by the WCG builder and the
// detector.

// first returns the first value of h under the canonical key, or "".
func first(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// Referer returns the request Referer header ("" when absent).
func (t *Transaction) Referer() string { return first(t.ReqHdr, "Referer") }

// Location returns the response Location header ("" when absent).
func (t *Transaction) Location() string { return first(t.RespHdr, "Location") }

// UserAgent returns the request User-Agent header.
func (t *Transaction) UserAgent() string { return first(t.ReqHdr, "User-Agent") }

// DNT reports whether the client sent "DNT: 1" (canonical key "Dnt").
func (t *Transaction) DNT() bool { return first(t.ReqHdr, "Dnt") == "1" }

// XFlashVersion returns the x-flash-version request header value.
func (t *Transaction) XFlashVersion() string { return first(t.ReqHdr, "X-Flash-Version") }

// SessionID extracts a session identifier from cookies: the response
// Set-Cookie wins, then the request Cookie header. Only the first
// name=value pair is used, mirroring the session-URI heuristic the paper
// cites for grouping transactions.
func (t *Transaction) SessionID() string {
	if sc := first(t.RespHdr, "Set-Cookie"); sc != "" {
		return firstCookiePair(sc)
	}
	if c := first(t.ReqHdr, "Cookie"); c != "" {
		return firstCookiePair(c)
	}
	return ""
}

func firstCookiePair(s string) string {
	if i := strings.IndexByte(s, ';'); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

// URL reconstructs the absolute URL of the request.
func (t *Transaction) URL() string {
	host := t.Host
	if host == "" {
		host = t.ServerIP.String()
	}
	return "http://" + host + t.URI
}

// IsRedirect reports whether the response is a 3xx with a Location header.
func (t *Transaction) IsRedirect() bool {
	return t.StatusCode >= 300 && t.StatusCode < 400 && t.Location() != ""
}

// String renders a compact one-line summary, useful in logs and examples.
func (t *Transaction) String() string {
	return fmt.Sprintf("%s %s -> %d %s (%d bytes)", t.Method, t.URL(), t.StatusCode, t.ContentType, t.BodySize)
}

// ExtractPairInto parses the two directions of one TCP conversation into
// transactions, appends them to dst and returns the extended slice,
// counting the parse on tm (nil counts nothing). c2s must be the
// client-to-server stream; s2c may be nil for a capture that recorded only
// requests. Unmatched requests keep a zero StatusCode. The parse state (head scratch and message
// slices) comes from a pool, so steady-state ingestion of many
// conversations stops allocating per-stream scaffolding; bulk extraction
// (ScanCapture, ExtractAll) also reuses one destination slice across
// conversations, which append grows amortised, so n conversations cost
// O(transactions).
func ExtractPairInto(dst []Transaction, c2s, s2c *pcap.Stream, tm *Telemetry) []Transaction {
	var start time.Duration
	if tm != nil {
		start = tm.tracer.Mark()
	}
	p := parserPool.Get().(*streamParser)
	defer p.release()
	payloadBytes := int64(len(c2s.Data))
	reqs := p.requests(c2s.Data)
	var resps []respMsg
	if s2c != nil {
		payloadBytes += int64(len(s2c.Data))
		resps = p.responses(s2c.Data, reqs)
	}
	n := len(resps)
	for i, rm := range reqs {
		tx := Transaction{
			ClientIP:    c2s.Key.SrcIP,
			ServerIP:    c2s.Key.DstIP,
			ClientPort:  c2s.Key.SrcPort,
			ServerPort:  c2s.Key.DstPort,
			Method:      rm.method,
			URI:         rm.uri,
			Host:        rm.host,
			ReqHdr:      rm.hdr,
			ReqTime:     c2s.TimeAt(rm.offset),
			ReqBodySize: rm.bodySize,
		}
		if i < n {
			pm := resps[i]
			tx.StatusCode = pm.status
			tx.RespHdr = pm.hdr
			tx.RespTime = s2c.TimeAt(pm.offset)
			tx.ContentType = pm.ctype
			tx.BodySize = pm.bodySize
			tx.Body = pm.body
		} else {
			tx.RespHdr = http.Header{}
		}
		dst = append(dst, tx) // amortised growth of the caller's slab: one allocation per doubling, none when dst has room
	}
	if tm != nil {
		tm.parsed(start, payloadBytes, len(reqs), p.unparsed)
	}
	return dst
}

// orient names the client-to-server direction of a conversation whose
// directions a and b (b may be nil) are in first-seen order. The client
// side is recognized by its bytes starting with an HTTP method; if both or
// neither direction qualifies, the direction targeting the lower port is
// assumed to be client-to-server (clients use ephemeral high ports). A
// conversation captured in one direction only yields nothing unless that
// direction is the client's.
func orient(a, b *pcap.Stream) (c2s, s2c *pcap.Stream) {
	aReq := looksLikeRequest(a.Data)
	if b == nil {
		if aReq {
			return a, nil
		}
		return nil, nil
	}
	bReq := looksLikeRequest(b.Data)
	switch {
	case aReq && !bReq:
		return a, b
	case bReq && !aReq:
		return b, a
	case a.Key.DstPort < a.Key.SrcPort:
		return a, b
	default:
		return b, a
	}
}

// extractConversation orients a conversation's directions a and b (b may
// be nil) and appends its transactions to dst. A lone direction that does
// not look like a request yields none, and tm counts its bytes as
// unparsed.
func extractConversation(dst []Transaction, a, b *pcap.Stream, tm *Telemetry) []Transaction {
	c2s, s2c := orient(a, b)
	if c2s == nil {
		if tm != nil {
			tm.unparsed.Add(int64(len(a.Data)))
		}
		return dst
	}
	return ExtractPairInto(dst, c2s, s2c, tm)
}

// ExtractAll pairs the directions of every conversation in streams (see
// orient) and returns all transactions sorted by request time. Two streams
// pair when they belong to the same connection: reverse keys and the same
// Conv. It counts nothing: no owner's telemetry is at hand.
func ExtractAll(streams []*pcap.Stream) []Transaction {
	// One entry per conversation in first-seen order: a is the direction
	// seen first, b the second (nil when only one was captured); further
	// streams of the same conversation are ignored.
	type convID struct {
		key  pcap.FlowKey
		conv int
	}
	type conv struct{ a, b *pcap.Stream }
	convs := make([]conv, 0, len(streams)/2+1)
	index := make(map[convID]int, len(streams)/2+1)
	for _, s := range streams {
		key, _ := s.Key.Canonical()
		id := convID{key, s.Conv}
		if i, ok := index[id]; !ok {
			index[id] = len(convs)
			convs = append(convs, conv{a: s})
		} else if convs[i].b == nil {
			convs[i].b = s
		}
	}
	var all []Transaction
	for _, cv := range convs {
		all = extractConversation(all, cv.a, cv.b, nil)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ReqTime.Before(all[j].ReqTime) })
	return all
}

// releaser is the state of one capture scan. The Assembler's sink parses
// each conversation as it closes into pending, a min-heap by (ReqTime,
// Conv, extraction order); after each packet every pending transaction
// dated before the watermark is delivered, in heap order.
//
// The watermark is the highest min(time of the packet in hand, first-frame
// time of the oldest open conversation) seen so far. On a time-ordered
// capture no open or future conversation can yield a transaction dated
// before it, so the delivered stream is exactly the order ReadCapture
// sorts into. A capture that is not time-ordered can yield one: such a
// late transaction is counted and delivered with the next release, never
// dropped.
type releaser struct {
	asm     *pcap.Assembler
	tm      *Telemetry
	deliver func(tx *Transaction, conv int)
	pending []pendingTx
	scratch []Transaction // ExtractPairInto's destination, reused
	seq     int           // transactions extracted so far
	mark    time.Time     // the watermark; zero until the first packet
	late    int
	// out is what deliver is handed a pointer to: a field, so the pointer
	// does not make every delivered transaction escape to the heap.
	out Transaction
}

// pendingTx is one extracted transaction waiting for the watermark.
type pendingTx struct {
	tx   Transaction
	conv int // the Stream.Conv of its conversation
	seq  int // extraction order
}

func (p *pendingTx) less(q *pendingTx) bool {
	if c := p.tx.ReqTime.Compare(q.tx.ReqTime); c != 0 {
		return c < 0
	}
	if p.conv != q.conv {
		return p.conv < q.conv
	}
	return p.seq < q.seq
}

// extract is the Assembler's sink: the conversation is parsed at once, out
// of buffers that are recycled when it returns, and its transactions join
// pending.
func (r *releaser) extract(a, b *pcap.Stream) {
	r.scratch = extractConversation(r.scratch[:0], a, b, r.tm)
	for i := range r.scratch {
		tx := &r.scratch[i]
		if tx.ReqTime.Before(r.mark) {
			r.late++
		}
		r.push(pendingTx{tx: *tx, conv: a.Conv, seq: r.seq})
		r.seq++
	}
	clear(r.scratch) // pending owns the headers and bodies now
}

// packet feeds one captured frame and releases what its time allows.
func (r *releaser) packet(p pcap.Packet) {
	r.asm.FeedPacket(p)
	w := p.Timestamp
	if oldest, ok := r.asm.Oldest(); ok && oldest.Before(w) {
		w = oldest
	}
	if w.After(r.mark) {
		r.mark = w
	}
	for len(r.pending) > 0 && r.pending[0].tx.ReqTime.Before(r.mark) {
		r.pop()
	}
}

// push adds e to the heap.
func (r *releaser) push(e pendingTx) {
	r.pending = append(r.pending, e)
	h := r.pending
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].less(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop delivers the heap's least transaction and removes it.
func (r *releaser) pop() {
	h := r.pending
	r.out = h[0].tx
	conv := h[0].conv
	n := len(h) - 1
	h[0] = h[n]
	h[n] = pendingTx{} // pin nothing past its delivery
	h = h[:n]
	for i := 0; ; {
		least, left := i, 2*i+1
		if left < n && h[left].less(&h[least]) {
			least = left
		}
		if right := left + 1; right < n && h[right].less(&h[least]) {
			least = right
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	r.pending = h
	r.deliver(&r.out, conv)
}

// scan is ScanCapture with each transaction's Stream.Conv beside it.
func scan(rd io.Reader, tm *Telemetry, deliver func(tx *Transaction, conv int)) (late int, err error) {
	r := &releaser{tm: tm, deliver: deliver}
	r.asm = pcap.NewAssembler(r.extract)
	if tm != nil {
		r.asm.Trace(tm.tracer)
	}
	if err := pcap.Scan(rd, r.packet); err != nil {
		return r.late, err
	}
	r.asm.Flush()
	for len(r.pending) > 0 {
		r.pop()
	}
	return r.late, nil
}

// ScanCapture is the end-to-end path from capture bytes — classic pcap or
// pcapng — to a stream of HTTP transactions: records are decoded one at a
// time, each TCP conversation is reassembled while it is open and parsed
// the moment it closes, and each transaction is handed to deliver as soon
// as no open or future conversation can yield an earlier one (see
// releaser), not at the end of the capture. The pointer is valid only
// during the call. On a time-ordered capture the stream is in request-time
// order; late counts the transactions delivered out of it. When the
// capture fails mid-read, what was delivered stays delivered and the rest
// is dropped with the error. tm, the owner's telemetry, counts the scan;
// nil counts nothing.
func ScanCapture(r io.Reader, tm *Telemetry, deliver func(*Transaction)) (late int, err error) {
	return scan(r, tm, func(tx *Transaction, _ int) { deliver(tx) })
}

// capture collects a scan's transactions: txs[i] came from conversation
// conv[i].
type capture struct {
	txs  []Transaction
	conv []int
}

func (c *capture) add(tx *Transaction, conv int) {
	c.txs = append(c.txs, *tx)
	c.conv = append(c.conv, conv)
}

// Sorting a capture stably by request time, then conversation, leaves the
// transactions of one conversation in stream order: the order ExtractAll
// gives the same conversations.
func (c *capture) Len() int { return len(c.txs) }
func (c *capture) Less(i, j int) bool {
	if cmp := c.txs[i].ReqTime.Compare(c.txs[j].ReqTime); cmp != 0 {
		return cmp < 0
	}
	return c.conv[i] < c.conv[j]
}
func (c *capture) Swap(i, j int) {
	c.txs[i], c.txs[j] = c.txs[j], c.txs[i]
	c.conv[i], c.conv[j] = c.conv[j], c.conv[i]
}

// ReadCapture is the collecting form of ScanCapture: every transaction of
// the capture, sorted by request time. The stream already is in that
// order unless the capture is not time-ordered; the one stable sort puts
// its late transactions in their place. Nothing of the capture's size is
// held but the transactions themselves. It counts nothing.
func ReadCapture(r io.Reader) ([]Transaction, error) {
	var c capture
	if _, err := scan(r, nil, c.add); err != nil {
		return nil, err
	}
	sort.Stable(&c)
	return c.txs, nil
}

var methodPrefixes = []string{"GET ", "POST ", "HEAD ", "PUT ", "DELETE ", "OPTIONS ", "PATCH ", "TRACE ", "CONNECT "}

// looksLikeRequest reports whether data starts with an HTTP method token.
func looksLikeRequest(data []byte) bool {
	for _, m := range methodPrefixes {
		if bytes.HasPrefix(data, []byte(m)) {
			return true
		}
	}
	return false
}
