package httpstream

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"dynaminer/internal/pcap"
)

// The capture path's HTTP parser as it stood before the in-place parser
// replaced it, kept as that parser's oracle: net/http's ReadRequest and
// ReadResponse behind a bytes.Reader → countingReader → bufio.Reader stack,
// and refRetainedBody — the io.ReadAll reference that the streaming body
// reader of that parser was pinned to — as its body step. A change here
// means a change to what a Transaction is.

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

// refReader is one direction's reader stack.
type refReader struct {
	rd bytes.Reader
	cr countingReader
	br *bufio.Reader
}

func newRefReader(data []byte) *refReader {
	r := &refReader{}
	r.rd.Reset(data)
	r.cr = countingReader{r: &r.rd}
	r.br = bufio.NewReader(&r.cr)
	return r
}

// pos is the stream offset of the next unread byte.
func (r *refReader) pos() int { return r.cr.n - r.br.Buffered() }

type refReq struct {
	req      *http.Request
	uri      string // req.URL.RequestURI(), the Transaction's URI
	offset   int
	bodySize int
}

type refResp struct {
	resp     *http.Response
	offset   int
	body     []byte
	bodySize int
	fellBack bool // the body degraded to the raw stream remainder
}

// msg is the reqMsg the in-place parser must make of the same request.
func (r refReq) msg() reqMsg {
	return reqMsg{method: r.req.Method, uri: r.uri, host: r.req.Host, hdr: r.req.Header, offset: r.offset, bodySize: r.bodySize}
}

// msg is the respMsg the in-place parser must make of the same response.
func (r refResp) msg() respMsg {
	return respMsg{status: r.resp.StatusCode, hdr: r.resp.Header, ctype: r.resp.Header.Get("Content-Type"),
		offset: r.offset, body: r.body, bodySize: r.bodySize}
}

// refRequests parses consecutive requests from data, stopping at the first
// malformed message; unparsed counts the bytes from that message on.
func refRequests(data []byte) (out []refReq, unparsed int) {
	r := newRefReader(data)
	for {
		// ReadRequest allocates its Request before reading the first byte;
		// the peek keeps exhausted input from paying for a dead one.
		if _, err := r.br.Peek(1); err != nil {
			return out, 0
		}
		offset := r.pos()
		req, err := http.ReadRequest(r.br)
		if err != nil {
			return out, len(data) - offset
		}
		n, err := io.Copy(io.Discard, req.Body)
		_ = req.Body.Close()
		out = append(out, refReq{req: req, uri: req.URL.RequestURI(), offset: offset, bodySize: int(n)})
		if err != nil {
			return out, 0
		}
	}
}

// refResponses parses consecutive responses from data, each matched
// positionally against reqs, and keeps a body only where its class carries
// redirects.
func refResponses(data []byte, reqs []refReq) (out []refResp, unparsed int) {
	r := newRefReader(data)
	for i := 0; ; i++ {
		if _, err := r.br.Peek(1); err != nil {
			return out, 0
		}
		offset := r.pos()
		var req *http.Request
		if i < len(reqs) {
			req = reqs[i].req
		}
		resp, err := http.ReadResponse(r.br, req)
		if err != nil {
			return out, len(data) - offset
		}
		keep := req != nil && ClassifyPayload(reqs[i].uri, resp.Header.Get("Content-Type")).CarriesRedirects()
		body, size, err, fellBack := refRetainedBody(resp, data[r.pos():])
		if !keep {
			body = nil
		}
		out = append(out, refResp{resp: resp, offset: offset, body: body, bodySize: size, fellBack: fellBack})
		if err != nil {
			return out, 0
		}
	}
}

// refRetainedBody is the body step as it stood before the streaming body
// reader: the whole body through io.ReadAll, the raw-remainder fallback,
// decode, reslice to maxRetainedBody, detach. It additionally reports
// whether the fallback was taken.
func refRetainedBody(resp *http.Response, rest []byte) (body []byte, size int, err error, fellBack bool) {
	body, bodyErr := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	size = len(body)
	aliased := false
	if bodyErr != nil && size == 0 && len(rest) > 0 {
		body = rest
		size = len(body)
		aliased = true
	}
	body = refDecodeContent(body, resp.Header.Get("Content-Encoding"))
	if len(body) > maxRetainedBody {
		body = body[:maxRetainedBody]
	}
	if aliased {
		body = detachBody(body)
	}
	return body, size, bodyErr, aliased
}

// detachBody copies a degraded body out of the stream buffer.
func detachBody(body []byte) []byte {
	if len(body) == 0 {
		return nil
	}
	out := make([]byte, len(body))
	copy(out, body)
	return out
}

// refDecodeContent is decodeContent as it stood when it took the raw
// header value.
func refDecodeContent(body []byte, encoding string) []byte {
	switch strings.ToLower(strings.TrimSpace(encoding)) {
	case "gzip", "x-gzip":
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return body
		}
		defer zr.Close()
		plain, err := io.ReadAll(io.LimitReader(zr, maxRetainedBody+1))
		if err != nil && len(plain) == 0 {
			return body
		}
		return plain
	case "deflate":
		fr := flate.NewReader(bytes.NewReader(body))
		defer fr.Close()
		plain, err := io.ReadAll(io.LimitReader(fr, maxRetainedBody+1))
		if err != nil && len(plain) == 0 {
			return body
		}
		return plain
	default:
		return body
	}
}

// refExtractPair is ExtractPair over the oracle parser.
func refExtractPair(c2s, s2c *pcap.Stream) []Transaction {
	reqs, _ := refRequests(c2s.Data)
	var resps []refResp
	if s2c != nil {
		resps, _ = refResponses(s2c.Data, reqs)
	}
	var out []Transaction
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
		if i < len(resps) {
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
		out = append(out, tx)
	}
	return out
}

// short renders v for a failure message, cut to a readable length.
func short(v any) string {
	s := fmt.Sprintf("%+v", v)
	if len(s) > 600 {
		s = s[:600] + "..."
	}
	return s
}

// diffRequests parses a client direction with both parsers and requires
// the same requests, field for field, the same offsets and body sizes,
// and the same unparsed remainder. It returns both parses.
func diffRequests(t *testing.T, name string, data []byte) ([]reqMsg, []refReq) {
	t.Helper()
	p := new(streamParser)
	got := p.requests(data)
	want, unparsed := refRequests(data)
	if len(got) != len(want) || p.unparsed != unparsed {
		t.Fatalf("%s: %d requests, %d bytes unparsed; oracle %d requests, %d bytes unparsed", name, len(got), p.unparsed, len(want), unparsed)
	}
	for i := range want {
		if w := want[i].msg(); !reflect.DeepEqual(got[i], w) {
			t.Fatalf("%s: request %d:\n got %s\nwant %s", name, i, short(got[i]), short(w))
		}
	}
	return got, want
}

// diffResponses parses a server direction with both parsers, each against
// its own parse of the client direction, and requires the same responses,
// field for field: offsets, kept body bytes (none where the retention rule
// drops them) and wire sizes, and the same unparsed remainder. Every body
// must also keep the retention bound. It returns how often the oracle took
// the raw-remainder fallback.
func diffResponses(t *testing.T, name string, data, client []byte) (fallbacks int) {
	t.Helper()
	p := new(streamParser)
	reqs := p.requests(client)
	p.unparsed = 0
	got := p.responses(data, reqs)
	refReqs, _ := refRequests(client)
	want, unparsed := refResponses(data, refReqs)
	if len(got) != len(want) || p.unparsed != unparsed {
		t.Fatalf("%s: %d responses, %d bytes unparsed; oracle %d responses, %d bytes unparsed", name, len(got), p.unparsed, len(want), unparsed)
	}
	for i := range want {
		if want[i].fellBack {
			fallbacks++
		}
		if w := want[i].msg(); !reflect.DeepEqual(got[i], w) {
			t.Fatalf("%s: response %d (oracle fell back: %v):\n got %s\nwant %s", name, i, want[i].fellBack, short(got[i]), short(w))
		}
		checkRetained(t, got[i].body, i < len(reqs) && ClassifyPayload(reqs[i].uri, got[i].ctype).CarriesRedirects())
	}
	return fallbacks
}
