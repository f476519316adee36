package httpstream

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// The parser below reads HTTP/1.x messages straight off a conversation
// direction's bytes, by offset. It accepts and rejects the messages
// net/http's ReadRequest and ReadResponse accept and reject, frames each
// body as net/http's body readers do, and leaves every field as net/http
// leaves it on the parsed Request or Response. The net/http path it
// replaced is kept in parse_ref_test.go as the oracle that the fuzz targets
// and TestParserQuirks hold it to.

// bufioWindow is the buffer of the bufio.Reader net/http reads through. Two
// of its limits are framing rules: the chunked reader refuses a chunk-size
// line of bufioWindow bytes or more, and a chunked body's trailer must show
// its CRLFCRLF within bufioWindow bytes.
const bufioWindow = 4096

// Framings of a body, beside a byte length (0 is no body).
const (
	chunked = -1 // chunked transfer coding, up to its last chunk's trailer
	toClose = -2 // every byte to the end of the stream: a response with no length
)

// maxPooledHead caps the head scratch a pooled parser keeps: a hostile
// megabyte header line is parsed, then let go.
const maxPooledHead = 64 << 10

// span is a key or value: p.buf[lo:hi] while its head is parsed, the same
// substring of the head's string after.
type span struct{ lo, hi int }

type field struct{ key, val span }

type reqMsg struct {
	method, uri, host string
	hdr               http.Header
	offset            int
	bodySize          int
}

type respMsg struct {
	status   int
	hdr      http.Header
	ctype    string
	offset   int
	body     []byte
	bodySize int
}

// streamParser is the reusable parse state one ExtractPairInto call borrows
// from parserPool: the head scratch and the reqMsg/respMsg product slices.
// A parser serves one conversation at a time; release clears the message
// slices so a pooled parser never pins a Transaction's headers or body.
type streamParser struct {
	buf      []byte // the head in hand: method and target, then each field's key and value
	fields   []field
	reqs     []reqMsg
	resps    []respMsg
	unparsed int // bytes from the first head the parse rejected to the end of its direction
}

var parserPool = sync.Pool{
	New: func() any { return new(streamParser) },
}

// release returns the parser to the pool.
func (p *streamParser) release() {
	clear(p.reqs)
	clear(p.resps)
	p.reqs, p.resps = p.reqs[:0], p.resps[:0]
	p.unparsed = 0
	if cap(p.buf) > maxPooledHead {
		p.buf = nil
	}
	parserPool.Put(p)
}

// requests parses consecutive HTTP requests from data into the parser's
// reused slice, recording each request's byte offset and body size.
// Parsing stops at the first malformed head, or after a body the stream
// cuts or whose framing breaks.
func (p *streamParser) requests(data []byte) []reqMsg {
	out := p.reqs[:0]
	for pos := 0; pos < len(data); {
		m, framing, start, ok := p.requestHead(data, pos)
		if !ok {
			p.unparsed += len(data) - pos
			break
		}
		// Only the body's size is kept: uploaded bytes are the exfiltration
		// volume of post-infection dialogues.
		size, n, ok := p.frame(data[start:], framing)
		m.offset, m.bodySize = pos, size
		out = append(out, m)
		if !ok {
			break
		}
		pos = start + n
	}
	p.reqs = out
	return out
}

// responses parses consecutive HTTP responses from data into the parser's
// reused slice. Each response is matched positionally against the request
// list, so HEAD answers frame no body, and a body is kept only if it can
// hide a redirect, judged on the URI and Content-Type the Transaction will
// carry; a response with no request to pair with never becomes one.
func (p *streamParser) responses(data []byte, reqs []reqMsg) []respMsg {
	out := p.resps[:0]
	for i, pos := 0, 0; pos < len(data); i++ {
		paired := i < len(reqs)
		var method, uri string
		if paired {
			method, uri = reqs[i].method, reqs[i].uri
		}
		m, coding, framing, start, ok := p.responseHead(data, pos, method)
		if !ok {
			p.unparsed += len(data) - pos
			break
		}
		keep := paired && ClassifyPayload(uri, m.ctype).CarriesRedirects()
		size, n, ok := p.frame(data[start:], framing)
		m.offset = pos
		m.body, m.bodySize = retained(data[start:], size, ok, framing, coding, keep)
		out = append(out, m)
		if !ok {
			// A cut or broken body: keep what it holds, stop.
			break
		}
		pos = start + n
	}
	p.resps = out
	return out
}

// requestHead parses the request head at data[pos:] as ReadRequest does.
// It returns the request, its body's framing and the offset the body
// starts at; ok is false where ReadRequest returns an error.
func (p *streamParser) requestHead(data []byte, pos int) (m reqMsg, framing int64, start int, ok bool) {
	l, next, ok := line(data, pos)
	if !ok {
		return m, 0, 0, false
	}
	method, rest, ok1 := bytes.Cut(l, []byte{' '})
	target, proto, ok2 := bytes.Cut(rest, []byte{' '})
	major, minor, ok := httpVersion(proto)
	if !ok1 || !ok2 || !ok || !isToken(method) {
		return m, 0, 0, false
	}
	p.buf = append(append(p.buf[:0], method...), target...)
	p.fields = p.fields[:0]
	if start, ok = p.readFields(data, next); !ok {
		return m, 0, 0, false
	}
	s, h, has := p.header()
	m.method = s[:len(method)]
	var hosts []string
	if has&hasHost != 0 {
		hosts = h["Host"]
		delete(h, "Host") // ReadRequest moves it out of the map
	}
	if len(hosts) > 1 {
		return m, 0, 0, false
	}
	if m.uri, m.host, ok = requestTarget(s[len(method):len(method)+len(target)], m.method); !ok {
		return m, 0, 0, false
	}
	// An absolute-form target's host wins over the Host header (RFC 7230
	// §5.3).
	if m.host == "" && len(hosts) == 1 {
		m.host = hosts[0]
	}
	if framing, ok = transfer(h, has, false, 200, m.method, major, minor); !ok {
		return m, 0, 0, false
	}
	m.hdr = h
	return m, framing, start, true
}

// responseHead parses the response head at data[pos:] as ReadResponse does
// for a request of the given method ("" for none: a GET is assumed). It
// returns the response, its Content-Encoding, its body's framing and the
// offset the body starts at; ok is false where ReadResponse returns an
// error.
func (p *streamParser) responseHead(data []byte, pos int, method string) (m respMsg, coding string, framing int64, start int, ok bool) {
	l, next, ok := line(data, pos)
	if !ok {
		return m, "", 0, 0, false
	}
	proto, status, ok := bytes.Cut(l, []byte{' '})
	if !ok {
		return m, "", 0, 0, false
	}
	code, _, _ := bytes.Cut(bytes.TrimLeft(status, " "), []byte{' '})
	m.status, ok = statusCode(code)
	major, minor, okVersion := httpVersion(proto)
	if !ok || m.status < 0 || !okVersion {
		return m, "", 0, 0, false
	}
	p.buf, p.fields = p.buf[:0], p.fields[:0]
	if start, ok = p.readFields(data, next); !ok {
		return m, "", 0, 0, false
	}
	_, h, has := p.header()
	if framing, ok = transfer(h, has, true, m.status, method, major, minor); !ok {
		return m, "", 0, 0, false
	}
	if has&hasContentType != 0 {
		m.ctype = h["Content-Type"][0]
	}
	if has&hasContentEncoding != 0 {
		coding = contentCoding(h["Content-Encoding"][0])
	}
	m.hdr = h
	return m, coding, framing, start, true
}

// line returns the line at data[pos:] without its '\n' and one '\r'
// before that, and the offset after the '\n'. ok is false when no '\n'
// ends it: no head that ends there is complete.
func line(data []byte, pos int) (l []byte, next int, ok bool) {
	i := bytes.IndexByte(data[pos:], '\n')
	if i < 0 {
		return nil, 0, false
	}
	l = data[pos : pos+i]
	if n := len(l); n > 0 && l[n-1] == '\r' {
		l = l[:n-1]
	}
	return l, pos + i + 1, true
}

// readFields reads the header lines at data[pos:] up to the empty line
// that ends them, as textproto.Reader.ReadMIMEHeader reads them, and
// appends each field's key and value to p.buf and p.fields: a line that
// starts with a space or tab continues the one before it, joined by one
// space (obs-fold); a key is canonicalised unless it holds a space; a value
// loses the spaces and tabs around it. It returns the offset after the
// empty line, or ok=false where ReadMIMEHeader returns an error.
func (p *streamParser) readFields(data []byte, pos int) (end int, ok bool) {
	if pos < len(data) && isSpace(data[pos]) {
		return 0, false // the first field cannot be a continuation
	}
	for {
		l, next, ok := line(data, pos)
		if !ok {
			return 0, false
		}
		pos = next
		if len(l) == 0 {
			return pos, true
		}
		l = bytes.Trim(l, " \t")
		colon := bytes.IndexByte(l, ':')
		if colon < 0 {
			return 0, false
		}
		var f field
		f.key.lo = len(p.buf)
		p.buf = append(p.buf, l[:colon]...)
		f.key.hi = len(p.buf)
		if !canonicalKey(p.buf[f.key.lo:]) {
			return 0, false
		}
		f.val.lo = len(p.buf)
		p.buf = append(p.buf, l[colon+1:]...)
		for pos < len(data) && isSpace(data[pos]) {
			for pos < len(data) && isSpace(data[pos]) {
				pos++
			}
			c, next, ok := line(data, pos)
			if !ok {
				return 0, false
			}
			pos = next
			p.buf = append(append(p.buf, ' '), bytes.Trim(c, " \t")...)
		}
		for _, c := range p.buf[f.val.lo:] {
			if !validValueByte(c) {
				return 0, false
			}
		}
		for f.val.lo < len(p.buf) && isSpace(p.buf[f.val.lo]) {
			f.val.lo++
		}
		f.val.hi = len(p.buf)
		p.fields = append(p.fields, f)
	}
}

// Header keys the parser acts on, as the bits header reports.
const (
	hasHost = 1 << iota
	hasContentLength
	hasTransferEncoding
	hasTrailer
	hasPragma
	hasConnection
	hasContentType
	hasContentEncoding
)

// header copies the parsed head out of p.buf into one string and builds
// its header map: every key and value is a substring of that string, and
// the values of distinct keys share one []string. It reports which of the
// keys above the map holds.
func (p *streamParser) header() (s string, h http.Header, has int) {
	s = string(p.buf)                     // the head's one copy: every field of the message is a substring of it
	h = make(http.Header, len(p.fields))  // the Transaction's header map
	vals := make([]string, len(p.fields)) // one backing for every key's first value
	for i, f := range p.fields {
		k := s[f.key.lo:f.key.hi]
		vals[i] = s[f.val.lo:f.val.hi]
		switch k {
		case "Host":
			has |= hasHost
		case "Content-Length":
			has |= hasContentLength
		case "Transfer-Encoding":
			has |= hasTransferEncoding
		case "Trailer":
			has |= hasTrailer
		case "Pragma":
			has |= hasPragma
		case "Connection":
			has |= hasConnection
		case "Content-Type":
			has |= hasContentType
		case "Content-Encoding":
			has |= hasContentEncoding
		}
		if vv, dup := h[k]; dup {
			h[k] = append(vv, vals[i]) // a repeated key grows its own slice, as textproto's does
		} else {
			h[k] = vals[i : i+1 : i+1]
		}
	}
	return s, h, has
}

// transfer does to a parsed head what net/http does between parsing it
// and handing it out (fixPragmaCacheControl, shouldClose, readTransfer): it
// edits the header map as they do, rejects what they reject, and returns
// the body's framing. A response's status and request method decide
// whether it has a body at all; a request is framed as a 200 answer to a
// GET.
func transfer(h http.Header, has int, resp bool, status int, method string, major, minor int) (framing int64, ok bool) {
	if has&hasPragma != 0 {
		if pragma := h["Pragma"]; pragma[0] == "no-cache" {
			if _, set := h["Cache-Control"]; !set {
				h["Cache-Control"] = []string{"no-cache"}
			}
		}
	}
	// A response's "Connection: close" is consumed by the reader, except
	// on HTTP/1.0 and below, where closing is the default.
	if resp && has&hasConnection != 0 && major >= 1 && !(major == 1 && minor == 0) && containsToken(h["Connection"], "close") {
		delete(h, "Connection")
	}
	if major == 0 && minor == 0 {
		major, minor = 1, 1
	}
	isChunked := false
	if has&hasTransferEncoding != 0 {
		te := h["Transfer-Encoding"]
		delete(h, "Transfer-Encoding")
		// Ignored below HTTP/1.1; above, exactly one "chunked" is allowed.
		if major > 1 || major == 1 && minor >= 1 {
			if len(te) != 1 || !equalFold(te[0], "chunked") {
				return 0, false
			}
			isChunked = true
		}
	}
	length := int64(-1)
	if has&hasContentLength != 0 {
		cl := h["Content-Length"]
		first := trimString(cl[0])
		for _, v := range cl[1:] {
			if trimString(v) != first {
				return 0, false
			}
		}
		if len(cl) > 1 {
			h["Content-Length"] = []string{first}
		}
		// Decimal digits only, at most 2^63-1, as net/http reads it.
		n, err := strconv.ParseUint(first, 10, 63)
		if err != nil {
			return 0, false
		}
		length = int64(n)
	}
	bodyless := resp && method == "HEAD" || status/100 == 1 || status == 204 || status == 304
	switch {
	case bodyless:
		length = 0
	case isChunked:
		delete(h, "Content-Length")
	case length < 0 && !resp:
		length = 0
	}
	if isChunked && has&hasTrailer != 0 {
		for _, v := range h["Trailer"] {
			if !trailerOK(v) {
				return 0, false
			}
		}
		delete(h, "Trailer")
	}
	switch {
	case isChunked && !bodyless:
		return chunked, true
	case isChunked, length == 0:
		return 0, true
	case length < 0:
		return toClose, true
	}
	return length, true
}

// frame walks the body at the head of rest as framing frames it and
// returns how many body bytes the stream holds, how many stream bytes the
// body and its framing take, and ok=false where the stream ends or the
// framing breaks first: where net/http's body reader returns an error.
func (p *streamParser) frame(rest []byte, framing int64) (size, n int, ok bool) {
	switch {
	case framing == toClose:
		return len(rest), len(rest), true
	case framing == chunked:
		w := chunkWalk{data: rest}
		for w.next() {
			size += len(w.chunk)
		}
		if !w.last {
			return size, w.pos, false
		}
		n, ok = p.trailer(rest, w.pos)
		return size, n, ok
	case int64(len(rest)) < framing:
		return len(rest), len(rest), false
	}
	return int(framing), int(framing), true
}

// trailer reads the trailer after a chunked body's last chunk, at
// rest[pos:], as net/http does: an empty line, or header lines whose
// CRLFCRLF shows within bufioWindow bytes. The fields are dropped.
func (p *streamParser) trailer(rest []byte, pos int) (end int, ok bool) {
	t := rest[pos:]
	switch {
	case len(t) < 2:
		return pos, false
	case t[0] == '\r' && t[1] == '\n':
		return pos + 2, true
	case !bytes.Contains(t[:min(len(t), bufioWindow)], []byte("\r\n\r\n")):
		return pos, false
	}
	buf, fields := len(p.buf), len(p.fields)
	end, ok = p.readFields(rest, pos)
	p.buf, p.fields = p.buf[:buf], p.fields[:fields]
	return end, ok
}

// chunkWalk reads a chunked body in place, as net/http's chunked reader
// does. Each next call steps to the next chunk's data (cut short where the
// stream ends) and returns false at the last, zero-size chunk, with last
// set and pos at its trailer, or at the first framing error. As an
// io.Reader it yields the chunks' data in turn.
type chunkWalk struct {
	data   []byte
	pos    int
	chunk  []byte // the chunk's data not read yet
	excess int64  // chunk-size line bytes beyond their allowance
	crlf   bool   // a CRLF must follow the chunk stepped over
	done   bool
	last   bool
}

func (w *chunkWalk) next() bool {
	if w.done {
		return false
	}
	w.done = true
	if w.crlf {
		if len(w.data)-w.pos < 2 || w.data[w.pos] != '\r' || w.data[w.pos+1] != '\n' {
			return false
		}
		w.pos += 2
	}
	l := w.data[w.pos:min(len(w.data), w.pos+bufioWindow-1)]
	i := bytes.IndexByte(l, '\n')
	if i < 0 {
		return false // cut, or longer than net/http reads
	}
	l = l[:i+1]
	w.pos += len(l)
	// A sender may pad chunk-size lines (extensions) only so far: 16 bytes
	// a chunk plus twice its data, as net/http allows.
	w.excess += int64(len(l)) + 2
	for len(l) > 0 && (isSpace(l[len(l)-1]) || l[len(l)-1] == '\r' || l[len(l)-1] == '\n') {
		l = l[:len(l)-1]
	}
	l, _, _ = bytes.Cut(l, []byte{';'})
	n, ok := hexSize(l)
	if !ok {
		return false
	}
	w.excess = max(w.excess-(16+2*int64(n)), 0)
	if n == 0 {
		w.last = true
		return false
	}
	if w.excess > 16<<10 {
		return false
	}
	if avail := len(w.data) - w.pos; uint64(avail) < n {
		w.chunk, w.pos = w.data[w.pos:], len(w.data)
		return true // the stream ends inside this chunk: the walk ends with it
	}
	w.chunk = w.data[w.pos : w.pos+int(n)]
	w.pos += int(n)
	w.crlf, w.done = true, false
	return true
}

func (w *chunkWalk) Read(b []byte) (int, error) {
	for len(w.chunk) == 0 {
		if !w.next() {
			return 0, io.EOF
		}
	}
	n := copy(b, w.chunk)
	w.chunk = w.chunk[n:]
	return n, nil
}

// retained returns what a Transaction keeps of a response body that rest
// starts with — size body bytes framed as framing, ok=false if the stream
// or the framing failed first — and the body's size on the wire. Only a
// body the caller keeps (its payload class carries redirects) is copied
// out: at most maxRetainedBody bytes, decoded. Any other body is counted
// only.
//
// A body whose framing is unusable from its first byte (a garbage
// chunk-size line, say) degrades to the raw stream remainder, so the
// transaction keeps its payload evidence instead of an empty body.
func retained(rest []byte, size int, ok bool, framing int64, coding string, keep bool) (body []byte, wire int) {
	if !ok && size == 0 && len(rest) > 0 {
		if !keep {
			return nil, len(rest)
		}
		if plain, ok := decode(bytes.NewReader(rest), coding); ok {
			return plain, len(rest)
		}
		// A copy: the stream buffer is the assembler's to reuse.
		return bytes.Clone(rest[:min(len(rest), maxRetainedBody)]), len(rest)
	}
	if !keep {
		return nil, size
	}
	if framing != chunked {
		rest = rest[:size]
	}
	if coding != "" {
		var src io.Reader = bytes.NewReader(rest)
		if framing == chunked {
			src = &chunkWalk{data: rest}
		}
		if plain, ok := decode(src, coding); ok {
			return plain, size
		}
	}
	// Kept as sent: one buffer of the kept prefix's size, and no more, so
	// the Transaction pins no more than it keeps.
	body = make([]byte, min(size, maxRetainedBody))
	if framing == chunked {
		_, _ = io.ReadFull(&chunkWalk{data: rest}, body)
	} else {
		copy(body, rest)
	}
	return body, size
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
// returns at most maxRetainedBody bytes of it: a large coded page costs its
// kept prefix and the decompressor's state, not its length. ok is false
// when there is no coding to undo or the body yields no plaintext; the
// caller then keeps the body raw.
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
	plain = make([]byte, 0, 512)
	for len(plain) < maxRetainedBody {
		if len(plain) == cap(plain) {
			// Doubling stops at maxRetainedBody, so the kept prefix never
			// holds more memory than it may retain.
			plain = append(make([]byte, 0, min(2*cap(plain), maxRetainedBody)), plain...)
		}
		n, err := zr.Read(plain[len(plain):cap(plain)])
		plain = plain[:len(plain)+n]
		if err != nil {
			if err != io.EOF && len(plain) == 0 {
				return nil, false
			}
			break
		}
	}
	return plain, true
}

// requestTarget is what ReadRequest makes of a request target: the
// Transaction's URI (URL.RequestURI()) and the host an absolute-form
// target names. A plain origin-form target is its own URI; any other goes
// through net/url as ReadRequest sends it.
func requestTarget(raw, method string) (uri, host string, ok bool) {
	if plainOrigin(raw) {
		return raw, "", true
	}
	// CONNECT's authority form ("host:443") parses as an absolute URL.
	authority := method == "CONNECT" && !strings.HasPrefix(raw, "/")
	if authority {
		raw = "http://" + raw
	}
	u, err := url.ParseRequestURI(raw)
	if err != nil {
		return "", "", false
	}
	if authority {
		u.Scheme = ""
	}
	return u.RequestURI(), u.Host, true
}

// plainOrigin reports whether raw is an origin-form target ("/path?query")
// net/url hands back as it is: no control byte anywhere, and a path of
// bytes it neither unescapes nor escapes.
func plainOrigin(raw string) bool {
	if raw == "" || raw[0] != '/' {
		return false
	}
	query := false
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c < 0x20 || c == 0x7f:
			return false
		case query:
		case c == '?':
			query = true
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9':
		case strings.IndexByte("-_.~$&+,/:;=@", c) < 0:
			return false
		}
	}
	return true
}

// httpVersion parses "HTTP/x.y" with one digit each, as
// http.ParseHTTPVersion does.
func httpVersion(proto []byte) (major, minor int, ok bool) {
	if len(proto) != 8 || !bytes.HasPrefix(proto, []byte("HTTP/")) || proto[6] != '.' ||
		!isDigit(proto[5]) || !isDigit(proto[7]) {
		return 0, 0, false
	}
	return int(proto[5] - '0'), int(proto[7] - '0'), true
}

// statusCode parses a three-byte status code as strconv.Atoi does: an
// optional sign, then digits.
func statusCode(b []byte) (int, bool) {
	if len(b) != 3 {
		return 0, false
	}
	digits := b
	if b[0] == '+' || b[0] == '-' {
		digits = b[1:]
	}
	n := 0
	for _, c := range digits {
		if !isDigit(c) {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if b[0] == '-' {
		n = -n
	}
	return n, true
}

// hexSize parses a chunk size as net/http does: 1 to 16 hex digits.
func hexSize(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		n = n<<4 | uint64(c)
	}
	return n, true
}

// trailerOK reports whether a Trailer header value names none of the
// fields net/http refuses in a trailer.
func trailerOK(v string) bool {
	for more := true; more; {
		var k string
		k, v, more = strings.Cut(v, ",")
		if k = trimString(k); isToken([]byte(k)) &&
			(equalFold(k, "Transfer-Encoding") || equalFold(k, "Trailer") || equalFold(k, "Content-Length")) {
			return false
		}
	}
	return true
}

// containsToken reports whether a comma-separated token list among values
// holds token, ASCII case-insensitively.
func containsToken(values []string, token string) bool {
	for _, v := range values {
		for more := true; more; {
			var t string
			t, v, more = strings.Cut(v, ",")
			if equalFold(strings.Trim(t, " \t"), token) {
				return true
			}
		}
	}
	return false
}

// canonicalKey canonicalises a header key in place as textproto does:
// the first letter and every letter after a hyphen upper case, the rest
// lower case. A key holding a space is accepted as it is; an empty key, or
// one with any other byte outside the token set, is rejected.
func canonicalKey(k []byte) bool {
	if len(k) == 0 {
		return false
	}
	spaced := false
	for _, c := range k {
		if c == ' ' {
			spaced = true
		} else if !tchar[c] {
			return false
		}
	}
	if spaced {
		return true
	}
	upper := true
	for i, c := range k {
		if upper && 'a' <= c && c <= 'z' {
			k[i] = c - ('a' - 'A')
		} else if !upper && 'A' <= c && c <= 'Z' {
			k[i] = c + ('a' - 'A')
		}
		upper = c == '-'
	}
	return true
}

// isToken reports whether b is a non-empty RFC 7230 token.
func isToken(b []byte) bool {
	for _, c := range b {
		if !tchar[c] {
			return false
		}
	}
	return len(b) > 0
}

// tchar is the RFC 7230 token byte set.
var tchar = func() (t [256]bool) {
	for _, c := range []byte("!#$%&'*+-.^_`|~0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz") {
		t[c] = true
	}
	return t
}()

// validValueByte reports whether c may appear in a header value: visible
// ASCII, space, tab, or obs-text.
func validValueByte(c byte) bool {
	return c >= 0x80 || c == '\t' || 0x20 <= c && c != 0x7f
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isSpace(c byte) bool { return c == ' ' || c == '\t' }

// trimString drops leading and trailing ASCII white space, as
// textproto.TrimString does.
func trimString(s string) string {
	return strings.Trim(s, " \t\r\n")
}

// equalFold reports whether s and t are equal under ASCII case folding.
func equalFold(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if lowerASCII(s[i]) != lowerASCII(t[i]) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}
