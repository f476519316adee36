// Package httpstream extracts paired HTTP/1.x transactions from
// reassembled TCP streams. A Transaction is the unit the rest of DynaMiner
// reasons about: the web conversation graph is built from transactions, and
// the on-the-wire detector consumes a live transaction stream.
package httpstream

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"sort"
	"strings"
	"sync"
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

// Referer returns the request Referer header ("" when absent).
func (t *Transaction) Referer() string { return t.ReqHdr.Get("Referer") }

// Location returns the response Location header ("" when absent).
func (t *Transaction) Location() string { return t.RespHdr.Get("Location") }

// UserAgent returns the request User-Agent header.
func (t *Transaction) UserAgent() string { return t.ReqHdr.Get("User-Agent") }

// DNT reports whether the client sent "DNT: 1".
func (t *Transaction) DNT() bool { return t.ReqHdr.Get("DNT") == "1" }

// XFlashVersion returns the x-flash-version request header value.
func (t *Transaction) XFlashVersion() string { return t.ReqHdr.Get("X-Flash-Version") }

// SessionID extracts a session identifier from cookies: the response
// Set-Cookie wins, then the request Cookie header. Only the first
// name=value pair is used, mirroring the session-URI heuristic the paper
// cites for grouping transactions.
func (t *Transaction) SessionID() string {
	if sc := t.RespHdr.Get("Set-Cookie"); sc != "" {
		return firstCookiePair(sc)
	}
	if c := t.ReqHdr.Get("Cookie"); c != "" {
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

// countingReader tracks consumed bytes so message start offsets inside a
// stream can be recovered despite bufio read-ahead.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

type reqMsg struct {
	req      *http.Request
	uri      string // req.URL.RequestURI(), the Transaction's URI
	offset   int
	bodySize int
}

type respMsg struct {
	resp     *http.Response
	offset   int
	body     []byte
	bodySize int
}

// streamParser is the reusable parse state one ExtractPair call borrows
// from parserPool: the byte/counting/bufio reader stack and the
// reqMsg/respMsg product slices. Before the pool, every conversation
// allocated all of it afresh — under steady-state ingestion that was the
// dominant per-stream garbage outside net/http itself. A parser serves one
// conversation at a time; release zeroes the message slices so pooled
// parsers never pin request/response objects (or their bodies) across
// uses.
type streamParser struct {
	rd    bytes.Reader
	cr    countingReader
	br    *bufio.Reader
	reqs  []reqMsg
	resps []respMsg
}

var parserPool = sync.Pool{
	New: func() any { return newStreamParser() },
}

func newStreamParser() *streamParser {
	p := &streamParser{}
	p.br = bufio.NewReader(&p.cr)
	return p
}

// start aims the reader stack at a new direction's bytes.
//
//dynalint:hotpath
func (p *streamParser) start(data []byte) {
	p.rd.Reset(data)
	p.cr = countingReader{r: &p.rd}
	p.br.Reset(&p.cr)
}

// release returns the parser to the pool. The message slices are cleared
// element-wise first: their *http.Request/*http.Response references (and
// body prefixes) now belong to the extracted Transactions, and a pooled
// parser must not keep them alive.
//
//dynalint:hotpath
func (p *streamParser) release() {
	clear(p.reqs)
	clear(p.resps)
	p.reqs, p.resps = p.reqs[:0], p.resps[:0]
	parserPool.Put(p)
}

// parseRequests parses consecutive HTTP requests from data with a fresh
// parser (the pooled path goes through ExtractPair; the fuzz targets and
// tests drive this entry).
func parseRequests(data []byte) []reqMsg {
	return newStreamParser().requests(data)
}

// parseResponses is the fresh-parser counterpart for responses.
func parseResponses(data []byte, reqs []reqMsg) []respMsg {
	return newStreamParser().responses(data, reqs)
}

// requests parses consecutive HTTP requests from data into the parser's
// reused slice, recording each request's byte offset. Parsing stops at the
// first malformed message.
//
//dynalint:hotpath
func (p *streamParser) requests(data []byte) []reqMsg {
	p.start(data)
	out := p.reqs[:0]
	for {
		// ReadRequest allocates its Request before reading the first byte,
		// so the terminal EOF call of every conversation would produce one
		// dead Request; a peek keeps exhausted input allocation-free.
		if _, err := p.br.Peek(1); err != nil {
			p.reqs = out
			return out
		}
		offset := p.cr.n - p.br.Buffered()
		req, err := http.ReadRequest(p.br)
		if err != nil {
			p.reqs = out
			return out
		}
		// Drain the request body, keeping only its size: uploaded bytes are
		// the exfiltration volume of post-infection dialogues.
		n, err := io.Copy(io.Discard, req.Body)
		_ = req.Body.Close()
		out = append(out, reqMsg{req: req, uri: req.URL.RequestURI(), offset: offset, bodySize: int(n)})
		if err != nil {
			p.reqs = out
			return out
		}
	}
}

// responses parses consecutive HTTP responses from data into the parser's
// reused slice. Each response is matched positionally against the request
// list so HEAD and status-only semantics resolve correctly.
//
//dynalint:hotpath
func (p *streamParser) responses(data []byte, reqs []reqMsg) []respMsg {
	p.start(data)
	out := p.resps[:0]
	for i := 0; ; i++ {
		// Same dead-allocation avoidance as the request loop: ReadResponse
		// builds its Response before touching the input.
		if _, err := p.br.Peek(1); err != nil {
			p.resps = out
			return out
		}
		offset := p.cr.n - p.br.Buffered()
		var req *http.Request
		if i < len(reqs) {
			req = reqs[i].req
		}
		resp, err := http.ReadResponse(p.br, req)
		if err != nil {
			p.resps = out
			return out
		}
		// The body is kept only if it can hide a redirect, judged on the
		// URI and Content-Type the Transaction will carry; a response
		// with no request to pair with never becomes one.
		keep := req != nil && ClassifyPayload(reqs[i].uri, resp.Header.Get("Content-Type")).CarriesRedirects()
		body, size, bodyErr := retainedBody(resp, data[p.cr.n-p.br.Buffered():], keep)
		out = append(out, respMsg{resp: resp, offset: offset, body: body, bodySize: size})
		if bodyErr != nil {
			// Truncated body (capture cut mid-transfer): keep the prefix, stop.
			p.resps = out
			return out
		}
	}
}

// retainedBody reads resp's body off the stream and returns what a
// Transaction keeps of it, with the body's size on the wire and the
// framing error, if any, that ends the stream's parse. rest is the raw
// stream from the body's first byte on. Only a body the caller keeps (its
// payload class carries redirects) is retained: at most maxRetainedBody
// bytes, decoded. Any other body is read and counted into no buffer.
//
// A kept body is read into a buffer sized once (readBody): no body is
// longer than rest, a Content-Length body is no longer than it announces,
// and only a maxRetainedBody prefix is ever kept, so no more than that is
// buffered and the Transaction does not pin the whole download. A coded
// body is decoded as it streams (decodeBody), under the same bound.
func retainedBody(resp *http.Response, rest []byte, keep bool) (body []byte, size int, err error) {
	if !keep {
		_, size, err = readBody(resp.Body, 0, 0)
		_ = resp.Body.Close()
		if err != nil && size == 0 {
			size = len(rest) // the degraded size a kept body reports (below)
		}
		return nil, size, err
	}
	limit := min(len(rest), maxRetainedBody)
	start := min(limit, 512) // unknown length: io.ReadAll's first buffer
	announced := resp.ContentLength
	if resp.Body == http.NoBody {
		announced = 0 // HEAD, 1xx/204/304: a Content-Length here announces no bytes
	}
	if announced >= 0 {
		// No byte past the announced length can arrive, so the buffer is
		// made at its final size (compared as int64: a hostile length
		// must not wrap an int).
		limit = int(min(int64(limit), announced))
		start = limit
	}
	coding := contentCoding(resp.Header.Get("Content-Encoding"))
	if coding == "" {
		body, size, err = readBody(resp.Body, start, limit)
	} else {
		body, size, err = decodeBody(resp.Body, coding, start, limit)
	}
	_ = resp.Body.Close()
	if err != nil && size == 0 && len(rest) > 0 {
		// The framing was unusable from the first body byte (e.g. a
		// garbage chunk-size line): degrade to the raw stream remainder
		// so the transaction keeps its payload evidence instead of
		// reporting an empty body.
		size = len(rest)
		if plain, ok := decode(bytes.NewReader(rest), coding); ok {
			return plain, size, err
		}
		// The raw remainder points into the stream buffer, which the
		// assembler reuses for the next conversation; detach the kept
		// prefix so the Transaction outlives it.
		return detachBody(rest[:min(len(rest), maxRetainedBody)]), size, err
	}
	return body, size, err
}

// readBody reads r to its end as io.ReadAll does, except that it keeps at
// most limit bytes — the rest is read, counted and dropped — in a buffer
// that starts at start bytes, so a caller that knows the length pays one
// allocation and no regrowth. It returns the kept prefix, the number of
// bytes read, and any error but io.EOF.
func readBody(r io.Reader, start, limit int) (kept []byte, n int, err error) {
	kept = make([]byte, 0, start)
	for len(kept) < limit {
		if len(kept) == cap(kept) {
			// Doubling stops at limit, so the kept prefix never holds
			// more memory than it may retain.
			kept = append(make([]byte, 0, min(max(2*cap(kept), 512), limit)), kept...)
		}
		m, err := r.Read(kept[len(kept):cap(kept)])
		kept = kept[:len(kept)+m]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return kept, len(kept), err
		}
	}
	dropped, err := io.Copy(io.Discard, r)
	return kept, len(kept) + int(dropped), err
}

// detachBody copies a degraded body out of the stream buffer. Every other
// body path allocates fresh bytes (readBody, content decoding); this one
// is the rare malformed-framing fallback, so the copy is cold and bounded
// by the maxRetainedBody truncation applied before the call.
func detachBody(body []byte) []byte {
	if len(body) == 0 {
		return nil
	}
	out := make([]byte, len(body))
	copy(out, body)
	return out
}

// contentCoding names the Content-Encoding values decode undoes: "gzip",
// "deflate", or "" for a body that is kept as sent.
func contentCoding(header string) string {
	switch strings.ToLower(strings.TrimSpace(header)) {
	case "gzip", "x-gzip":
		return "gzip"
	case "deflate":
		return "deflate"
	default:
		return ""
	}
}

// decode undoes a gzip/deflate content coding (as contentCoding names it)
// on the coded bytes r yields, so redirect sniffing sees plaintext, and
// returns at most maxRetainedBody bytes of it. ok is false when there is
// no coding to undo or the body yields no plaintext; the caller then
// keeps the body raw.
func decode(r io.Reader, coding string) (plain []byte, ok bool) {
	var zr io.ReadCloser
	switch coding {
	case "gzip":
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, false
		}
		zr = gz
	case "deflate":
		zr = flate.NewReader(r)
	default:
		return nil, false
	}
	defer zr.Close()
	plain, _, err := readBody(io.LimitReader(zr, maxRetainedBody), 512, maxRetainedBody)
	if err != nil && len(plain) == 0 {
		return nil, false
	}
	return plain, true
}

// decodeBody reads a coded body off r and returns at most
// maxRetainedBody bytes of its plaintext, decoded as the body streams, so
// a large coded page costs its kept prefix and the decompressor's state,
// not its length. The body's size on the wire and its framing error are
// taken at the raw reader (wireBody), beneath the decompressor and its
// read-ahead, and the rest of the body is drained there after decoding
// stops. A body that does not decode is kept raw: the first limit wire
// bytes (start is the raw buffer's first size, as for readBody).
func decodeBody(r io.Reader, coding string, start, limit int) (kept []byte, n int, err error) {
	wire := &wireBody{r: r, raw: make([]byte, 0, start), limit: limit}
	plain, ok := decode(wire, coding)
	if ok {
		wire.raw, wire.limit = nil, 0 // decoded: no raw fallback to keep
	}
	_, _ = io.Copy(io.Discard, wire)
	if err = wire.end; err == io.EOF {
		err = nil
	}
	if !ok {
		plain = wire.raw
	}
	return plain, wire.n, err
}

// wireBody is the raw side of a coded body beneath its decompressor. It
// counts the bytes read off the wire, tees the first limit of them into
// raw, and ends its input at the body's end with io.EOF whatever ended
// it, keeping the error in end: the decompressor sees exactly the bytes a
// whole-body read would have handed it, followed by a clean end.
type wireBody struct {
	r     io.Reader
	raw   []byte
	limit int
	n     int
	end   error // io.EOF, or the framing error that cut the body
}

func (w *wireBody) Read(p []byte) (int, error) {
	if w.end != nil {
		return 0, io.EOF
	}
	m, err := w.r.Read(p)
	w.n += m
	if keep := min(m, w.limit-len(w.raw)); keep > 0 {
		if len(w.raw)+keep > cap(w.raw) {
			// Grown as readBody grows its buffer: never past limit.
			w.raw = append(make([]byte, 0, min(max(2*cap(w.raw), len(w.raw)+keep, 512), w.limit)), w.raw...)
		}
		w.raw = append(w.raw, p[:keep]...)
	}
	if err != nil {
		w.end = err
		return m, io.EOF
	}
	return m, nil
}

// ExtractPair parses the two directions of one TCP conversation into
// transactions. c2s must be the client-to-server stream; s2c may be nil for
// a capture that recorded only requests. Unmatched requests keep a zero
// StatusCode.
func ExtractPair(c2s, s2c *pcap.Stream) []Transaction {
	return ExtractPairInto(nil, c2s, s2c)
}

// ExtractPairInto appends the conversation's transactions to dst and
// returns the extended slice. The parse state (reader stack and message
// slices) comes from a pool, so steady-state ingestion of many
// conversations stops allocating per-stream scaffolding; bulk extraction
// (ScanCapture, ExtractAll) also reuses one destination slice across
// conversations, which append grows amortised, so n conversations cost
// O(transactions).
//
//dynalint:hotpath
func ExtractPairInto(dst []Transaction, c2s, s2c *pcap.Stream) []Transaction {
	start := parseClock()
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
			Method:      rm.req.Method,
			URI:         rm.uri,
			Host:        rm.req.Host,
			ReqHdr:      rm.req.Header,
			ReqTime:     c2s.TimeAt(rm.offset),
			ReqBodySize: rm.bodySize,
		}
		if i < n {
			pm := resps[i]
			tx.StatusCode = pm.resp.StatusCode
			tx.RespHdr = pm.resp.Header
			tx.RespTime = s2c.TimeAt(pm.offset)
			tx.ContentType = pm.resp.Header.Get("Content-Type")
			tx.BodySize = pm.bodySize
			tx.Body = pm.body
		} else {
			tx.RespHdr = http.Header{}
		}
		dst = append(dst, tx) //dynalint:ignore hotalloc amortised growth of the caller's slab: one allocation per doubling, none when dst has room
	}
	elapsed := parseClock().Sub(start).Seconds()
	parseSeconds.Observe(elapsed)
	if tb := parseTrace.Load(); tb != nil {
		tb.t.ObserveStage(tb.stage, elapsed)
	}
	parseBytes.Add(payloadBytes)
	parseTransactions.Add(int64(len(reqs)))
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

// ExtractAll pairs the directions of every conversation in streams (see
// orient) and returns all transactions sorted by request time. Two streams
// pair when they belong to the same connection: reverse keys and the same
// Conv.
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
		if c2s, s2c := orient(cv.a, cv.b); c2s != nil {
			all = ExtractPairInto(all, c2s, s2c)
		}
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
	c2s, s2c := orient(a, b)
	if c2s == nil {
		return
	}
	r.scratch = ExtractPairInto(r.scratch[:0], c2s, s2c)
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
func scan(rd io.Reader, deliver func(tx *Transaction, conv int)) (late int, err error) {
	r := &releaser{deliver: deliver}
	r.asm = pcap.NewAssembler(r.extract)
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
// is dropped with the error.
func ScanCapture(r io.Reader, deliver func(*Transaction)) (late int, err error) {
	return scan(r, func(tx *Transaction, _ int) { deliver(tx) })
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
// held but the transactions themselves.
func ReadCapture(r io.Reader) ([]Transaction, error) {
	var c capture
	if _, err := scan(r, c.add); err != nil {
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
