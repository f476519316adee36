package httpstream

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"dynaminer/internal/pcap"
)

var (
	clientIP = netip.MustParseAddr("10.0.0.5")
	serverIP = netip.MustParseAddr("203.0.113.80")
	baseTime = time.Date(2016, 7, 10, 14, 0, 0, 0, time.UTC)
)

func mkStream(src, dst netip.Addr, sp, dp uint16, data string) *pcap.Stream {
	conv := pcap.Conversation{
		ClientIP:   src,
		ServerIP:   dst,
		ClientPort: sp,
		ServerPort: dp,
		Exchanges: []pcap.Exchange{
			{ClientToServer: true, Payload: []byte(data), Timestamp: baseTime},
		},
	}
	pkts, err := pcap.BuildConversation(conv)
	if err != nil {
		panic(err)
	}
	for _, s := range assemble(pkts) {
		if s.Key.SrcIP == src && s.Key.SrcPort == sp {
			return s
		}
	}
	panic("stream not found")
}

// assemble reassembles packets into streams that own their bytes.
func assemble(pkts []pcap.Packet) []*pcap.Stream {
	streams, _ := pcap.AssembleStreamsInto(nil, pkts)
	return streams
}

// writePackets renders pkts as a classic pcap, in the order given.
func writePackets(t *testing.T, pkts []pcap.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf)
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// readPackets writes pkts out as a classic pcap, in the order given, and
// reads it back through ReadCapture.
func readPackets(t *testing.T, pkts []pcap.Packet) []Transaction {
	t.Helper()
	txs, err := ReadCapture(bytes.NewReader(writePackets(t, pkts)))
	if err != nil {
		t.Fatal(err)
	}
	return txs
}

// buildConv renders alternating request/response payload strings into a
// full conversation and returns the reassembled streams.
func buildConv(reqData, respData string) (c2s, s2c *pcap.Stream) {
	conv := pcap.Conversation{
		ClientIP:   clientIP,
		ServerIP:   serverIP,
		ClientPort: 49200,
		ServerPort: 80,
		Exchanges: []pcap.Exchange{
			{ClientToServer: true, Payload: []byte(reqData), Timestamp: baseTime},
			{ClientToServer: false, Payload: []byte(respData), Timestamp: baseTime.Add(40 * time.Millisecond)},
		},
	}
	pkts, err := pcap.BuildConversation(conv)
	if err != nil {
		panic(err)
	}
	for _, s := range assemble(pkts) {
		if s.Key.DstPort == 80 {
			c2s = s
		} else {
			s2c = s
		}
	}
	return c2s, s2c
}

// buildConvPackets renders one request/response exchange into raw capture
// packets (for ReadCapture, which owns the reassembly step).
func buildConvPackets(t *testing.T, reqData, respData string) []pcap.Packet {
	t.Helper()
	pkts, err := pcap.BuildConversation(pcap.Conversation{
		ClientIP:   clientIP,
		ServerIP:   serverIP,
		ClientPort: 49200,
		ServerPort: 80,
		Exchanges: []pcap.Exchange{
			{ClientToServer: true, Payload: []byte(reqData), Timestamp: baseTime},
			{ClientToServer: false, Payload: []byte(respData), Timestamp: baseTime.Add(40 * time.Millisecond)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

const simpleGet = "GET /index.html HTTP/1.1\r\n" +
	"Host: example.com\r\n" +
	"Referer: http://bing.com/search?q=x\r\n" +
	"User-Agent: MSIE8.0\r\n" +
	"DNT: 1\r\n" +
	"X-Flash-Version: 18,0,0,232\r\n" +
	"Cookie: sid=abc123; theme=dark\r\n" +
	"\r\n"

const simpleResp = "HTTP/1.1 200 OK\r\n" +
	"Content-Type: text/html\r\n" +
	"Content-Length: 12\r\n" +
	"Set-Cookie: sid=abc123; Path=/\r\n" +
	"\r\n" +
	"<html></html"

// TestHeaderAccessorsDoNotAllocate: the header accessors, which the WCG
// builder and the detector call per transaction, look up canonical keys.
// http.Header.Get canonicalizes its key first, which allocates for any
// key not already canonical ("DNT" becomes "Dnt"). Each accessor keeps
// Get's semantics: the first value decides, and an absent key or an empty
// value list reads as "".
func TestHeaderAccessorsDoNotAllocate(t *testing.T) {
	c2s, s2c := buildConv(simpleGet, simpleResp)
	tx := ExtractPairInto(nil, c2s, s2c, nil)[0]
	tx.RespHdr.Set("Location", "http://example.net/next")
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		sink += len(tx.Referer()) + len(tx.Location()) + len(tx.UserAgent()) +
			len(tx.XFlashVersion()) + len(tx.SessionID())
		if tx.DNT() {
			sink++
		}
	})
	if allocs != 0 {
		t.Fatalf("header accessors allocate %.1f times per call set, want 0", allocs)
	}
	session := func(req, resp http.Header) string {
		if sc := resp.Get("Set-Cookie"); sc != "" {
			return firstCookiePair(sc)
		}
		return firstCookiePair(req.Get("Cookie"))
	}
	for _, vals := range [][]string{nil, {}, {"1"}, {"0"}, {"1", "0"}, {"0", "1"}, {""}, {"", "1"}, {"a=1; b", "c=2"}} {
		for _, key := range []string{"Referer", "Location", "User-Agent", "DNT", "X-Flash-Version", "Set-Cookie", "Cookie"} {
			h := http.Header{}
			if vals != nil {
				h[http.CanonicalHeaderKey(key)] = vals
			}
			tx.ReqHdr, tx.RespHdr = h, h
			var got, want string
			switch key {
			case "Referer":
				got, want = tx.Referer(), h.Get(key)
			case "Location":
				got, want = tx.Location(), h.Get(key)
			case "User-Agent":
				got, want = tx.UserAgent(), h.Get(key)
			case "DNT":
				got, want = fmt.Sprint(tx.DNT()), fmt.Sprint(h.Get(key) == "1")
			case "X-Flash-Version":
				got, want = tx.XFlashVersion(), h.Get(key)
			case "Set-Cookie":
				tx.ReqHdr = http.Header{"Cookie": {"fallback=1"}}
				got, want = tx.SessionID(), session(tx.ReqHdr, h)
			case "Cookie":
				tx.RespHdr = http.Header{}
				got, want = tx.SessionID(), session(h, tx.RespHdr)
			}
			if got != want {
				t.Fatalf("%s values %q: accessor reads %q, http.Header.Get %q", key, vals, got, want)
			}
		}
	}
}

func TestExtractPairBasic(t *testing.T) {
	c2s, s2c := buildConv(simpleGet, simpleResp)
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d, want 1", len(txs))
	}
	tx := txs[0]
	if tx.Method != "GET" || tx.URI != "/index.html" || tx.Host != "example.com" {
		t.Fatalf("request fields wrong: %+v", tx)
	}
	if tx.StatusCode != 200 || tx.ContentType != "text/html" || tx.BodySize != 12 {
		t.Fatalf("response fields wrong: code=%d ct=%q size=%d", tx.StatusCode, tx.ContentType, tx.BodySize)
	}
	if tx.Referer() != "http://bing.com/search?q=x" {
		t.Fatalf("referer = %q", tx.Referer())
	}
	if !tx.DNT() {
		t.Fatal("DNT must be true")
	}
	if tx.XFlashVersion() != "18,0,0,232" {
		t.Fatalf("x-flash-version = %q", tx.XFlashVersion())
	}
	if tx.SessionID() != "sid=abc123" {
		t.Fatalf("session id = %q", tx.SessionID())
	}
	if tx.UserAgent() != "MSIE8.0" {
		t.Fatalf("user agent = %q", tx.UserAgent())
	}
	if tx.URL() != "http://example.com/index.html" {
		t.Fatalf("url = %q", tx.URL())
	}
	if tx.RespTime.Before(tx.ReqTime) {
		t.Fatal("response time precedes request time")
	}
	if tx.IsRedirect() {
		t.Fatal("200 is not a redirect")
	}
}

func TestSessionIDFallsBackToRequestCookie(t *testing.T) {
	tx := Transaction{
		ReqHdr:  http.Header{"Cookie": {"u=9; x=1"}},
		RespHdr: http.Header{},
	}
	if tx.SessionID() != "u=9" {
		t.Fatalf("session id = %q", tx.SessionID())
	}
	tx2 := Transaction{ReqHdr: http.Header{}, RespHdr: http.Header{}}
	if tx2.SessionID() != "" {
		t.Fatal("empty headers must give empty session id")
	}
}

func TestPipelinedTransactions(t *testing.T) {
	reqs := "GET /a HTTP/1.1\r\nHost: h1.com\r\n\r\n" +
		"POST /b HTTP/1.1\r\nHost: h1.com\r\nContent-Length: 3\r\n\r\nxyz" +
		"GET /c HTTP/1.1\r\nHost: h1.com\r\n\r\n"
	resps := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok" +
		"HTTP/1.1 302 Found\r\nLocation: http://h2.com/l\r\nContent-Length: 0\r\n\r\n" +
		"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"
	c2s, s2c := buildConv(reqs, resps)
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 3 {
		t.Fatalf("transactions = %d, want 3", len(txs))
	}
	if txs[0].StatusCode != 200 || txs[1].StatusCode != 302 || txs[2].StatusCode != 404 {
		t.Fatalf("status codes: %d %d %d", txs[0].StatusCode, txs[1].StatusCode, txs[2].StatusCode)
	}
	if txs[1].Method != "POST" {
		t.Fatalf("method[1] = %q", txs[1].Method)
	}
	if !txs[1].IsRedirect() || txs[1].Location() != "http://h2.com/l" {
		t.Fatalf("redirect detection failed: %+v", txs[1])
	}
}

func TestChunkedResponse(t *testing.T) {
	resp := "HTTP/1.1 200 OK\r\n" +
		"Content-Type: application/x-shockwave-flash\r\n" +
		"Transfer-Encoding: chunked\r\n\r\n" +
		"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
	c2s, s2c := buildConv("GET /f.swf HTTP/1.1\r\nHost: ek.com\r\n\r\n", resp)
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d", len(txs))
	}
	// An SWF carries no redirect: the chunked body is sized, not kept.
	if txs[0].BodySize != 11 || txs[0].Body != nil {
		t.Fatalf("chunked SWF body: size=%d body=%q, want size 11 and nothing kept", txs[0].BodySize, txs[0].Body)
	}
}

func TestRequestWithoutResponse(t *testing.T) {
	c2s := mkStream(clientIP, serverIP, 49300, 80, "GET /x HTTP/1.1\r\nHost: a.com\r\n\r\n")
	txs := ExtractPairInto(nil, c2s, nil, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d, want 1", len(txs))
	}
	if txs[0].StatusCode != 0 {
		t.Fatalf("status = %d, want 0 for missing response", txs[0].StatusCode)
	}
}

func TestMalformedRequestStopsParsing(t *testing.T) {
	data := "GET /ok HTTP/1.1\r\nHost: a.com\r\n\r\nNOT-HTTP GARBAGE"
	c2s := mkStream(clientIP, serverIP, 49301, 80, data)
	txs := ExtractPairInto(nil, c2s, nil, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d, want 1 (garbage must stop parsing)", len(txs))
	}
}

func TestTruncatedResponseBodyKept(t *testing.T) {
	// Content-Length promises 100 bytes but only 10 arrive.
	resp := "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n0123456789"
	c2s, s2c := buildConv("GET /t HTTP/1.1\r\nHost: a.com\r\n\r\n", resp)
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d, want 1", len(txs))
	}
	if txs[0].BodySize != 10 {
		t.Fatalf("truncated body size = %d, want 10", txs[0].BodySize)
	}
}

// reversedPackets is three one-request conversations written one after
// another, each dated a second before the one written ahead of it: a
// capture that is not time-ordered.
func reversedPackets(t *testing.T) []pcap.Packet {
	t.Helper()
	var pkts []pcap.Packet
	for i := 0; i < 3; i++ {
		req := fmt.Sprintf("GET /page%d HTTP/1.1\r\nHost: site%d.com\r\n\r\n", i, i)
		resp := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
		p, err := pcap.BuildConversation(pcap.Conversation{
			ClientIP:   clientIP,
			ServerIP:   netip.MustParseAddr(fmt.Sprintf("203.0.113.%d", 10+i)),
			ClientPort: uint16(49400 + i),
			ServerPort: 80,
			Exchanges: []pcap.Exchange{
				{ClientToServer: true, Payload: []byte(req), Timestamp: baseTime.Add(time.Duration(2-i) * time.Second)},
				{ClientToServer: false, Payload: []byte(resp), Timestamp: baseTime.Add(time.Duration(2-i)*time.Second + 50*time.Millisecond)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p...)
	}
	return pkts
}

func TestExtractAllEndToEnd(t *testing.T) {
	txs := readPackets(t, reversedPackets(t))
	if len(txs) != 3 {
		t.Fatalf("transactions = %d, want 3", len(txs))
	}
	// Sorted by request time: conversation order is reversed.
	if txs[0].Host != "site2.com" || txs[2].Host != "site0.com" {
		t.Fatalf("not time-sorted: %s .. %s", txs[0].Host, txs[2].Host)
	}
}

// scanned is what ScanCapture delivered, and how much of the capture had
// been read at each delivery.
type scanned struct {
	txs  []Transaction
	read []int
	late int
}

// countingRead wraps r so that *n counts the bytes read from it.
type countingRead struct {
	r io.Reader
	n *int
}

func (c countingRead) Read(p []byte) (int, error) {
	m, err := c.r.Read(p)
	*c.n += m
	return m, err
}

// scanBytes runs ScanCapture over capture one byte per Read.
func scanBytes(t *testing.T, capture []byte) scanned {
	t.Helper()
	var s scanned
	read := 0
	late, err := ScanCapture(countingRead{iotest.OneByteReader(bytes.NewReader(capture)), &read}, nil, func(tx *Transaction) {
		s.txs = append(s.txs, *tx)
		s.read = append(s.read, read)
	})
	if err != nil {
		t.Fatal(err)
	}
	s.late = late
	return s
}

// TestScanCaptureReleasesBeforeEOF pins the release rule on a time-ordered
// capture: a conversation's transactions are delivered once it has closed
// and the capture has moved past them, long before the end of the
// capture, and the stream is exactly what ReadCapture returns, with none
// late.
func TestScanCaptureReleasesBeforeEOF(t *testing.T) {
	var pkts []pcap.Packet
	for i := 0; i < 4; i++ {
		p, err := pcap.BuildConversation(pcap.Conversation{
			ClientIP: clientIP, ServerIP: serverIP, ClientPort: uint16(49600 + i), ServerPort: 80,
			Exchanges: []pcap.Exchange{
				{ClientToServer: true, Payload: []byte(fmt.Sprintf("GET /%d HTTP/1.1\r\nHost: a.com\r\n\r\n", i)), Timestamp: baseTime.Add(time.Duration(i) * time.Second)},
				{ClientToServer: false, Payload: []byte(simpleResp), Timestamp: baseTime.Add(time.Duration(i)*time.Second + 40*time.Millisecond)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p...)
	}
	capture := writePackets(t, pkts)
	s := scanBytes(t, capture)
	want, err := ReadCapture(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.txs, want) || s.late != 0 {
		t.Fatalf("ScanCapture delivered %d transactions (%d late), ReadCapture returned %d: want the same stream, none late", len(s.txs), s.late, len(want))
	}
	for i, n := range s.read[:len(s.read)-1] {
		if n >= len(capture) {
			t.Fatalf("transaction %d of %d delivered only once the whole %d-byte capture was read", i+1, len(s.txs), len(capture))
		}
	}
}

// TestScanCaptureCountsLateTransactions: on the time-reversed capture each
// conversation closes after a later-dated one was released, so two of the
// three transactions are late. They are delivered and counted, never
// dropped, and ReadCapture still sorts them into place.
func TestScanCaptureCountsLateTransactions(t *testing.T) {
	capture := writePackets(t, reversedPackets(t))
	s := scanBytes(t, capture)
	if len(s.txs) != 3 || s.late != 2 {
		t.Fatalf("delivered %d transactions, %d late; want 3, 2 late", len(s.txs), s.late)
	}
	if s.txs[0].Host != "site0.com" || s.txs[2].Host != "site2.com" {
		t.Fatalf("delivered %s .. %s, want capture order", s.txs[0].Host, s.txs[2].Host)
	}
}

// withRST returns a conversation's packets with its FIN teardown replaced by
// one RST from the client.
func withRST(t *testing.T, pkts []pcap.Packet) []pcap.Packet {
	t.Helper()
	n := len(pkts)
	var f pcap.Frame
	if err := pcap.DecodeFrameInto(&f, pkts[n-2].Data); err != nil { // the client's FIN
		t.Fatal(err)
	}
	f.Flags = pcap.FlagRST | pcap.FlagACK
	data, err := pcap.EncodeFrame(&f)
	if err != nil {
		t.Fatal(err)
	}
	return append(pkts[:n-2:n-2], pcap.Packet{Timestamp: pkts[n-2].Timestamp, Data: data})
}

// TestRSTConversationReleasedBeforeEOF: a conversation the client resets
// yields the transactions its FIN teardown would, and they are delivered
// as soon as the capture moves past it — a reset conversation does not
// hold the watermark until the end of the capture.
func TestRSTConversationReleasedBeforeEOF(t *testing.T) {
	first := buildConvPackets(t, simpleGet, simpleResp)
	later, err := pcap.BuildConversation(pcap.Conversation{
		ClientIP: clientIP, ServerIP: serverIP, ClientPort: 49201, ServerPort: 80,
		Exchanges: []pcap.Exchange{
			{ClientToServer: true, Payload: []byte("GET /later HTTP/1.1\r\nHost: b.com\r\n\r\n"), Timestamp: baseTime.Add(time.Second)},
			{ClientToServer: false, Payload: []byte(simpleResp), Timestamp: baseTime.Add(time.Second + 40*time.Millisecond)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := writePackets(t, append(first[:len(first):len(first)], later...))
	rst := writePackets(t, append(withRST(t, first), later...))
	want, err := ReadCapture(bytes.NewReader(fin))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCapture(bytes.NewReader(rst))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("the RST capture read %d transactions, the FIN capture %d: want the same two", len(got), len(want))
	}
	s := scanBytes(t, rst)
	if len(s.txs) != 2 || s.txs[0].URI != "/index.html" || s.read[0] >= len(rst) {
		t.Fatalf("the reset conversation's transaction was delivered after %d of %d bytes: want it before the end of the capture", s.read[0], len(rst))
	}
}

func TestLooksLikeRequest(t *testing.T) {
	if !looksLikeRequest([]byte("POST /x HTTP/1.1\r\n")) {
		t.Fatal("POST must look like a request")
	}
	if looksLikeRequest([]byte("HTTP/1.1 200 OK\r\n")) {
		t.Fatal("response must not look like a request")
	}
}

func TestTransactionString(t *testing.T) {
	tx := Transaction{
		Method: "GET", Host: "a.com", URI: "/x",
		StatusCode: 200, ContentType: "text/html", BodySize: 5,
		ReqHdr: http.Header{}, RespHdr: http.Header{},
	}
	s := tx.String()
	if !strings.Contains(s, "GET http://a.com/x") || !strings.Contains(s, "200") {
		t.Fatalf("string = %q", s)
	}
}

func TestLargeBodyCapped(t *testing.T) {
	body := strings.Repeat("A", maxRetainedBody+5000)
	resp := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	c2s, s2c := buildConv("GET /big HTTP/1.1\r\nHost: a.com\r\n\r\n", resp)
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d", len(txs))
	}
	if txs[0].BodySize != len(body) {
		t.Fatalf("body size = %d, want %d", txs[0].BodySize, len(body))
	}
	if len(txs[0].Body) != maxRetainedBody {
		t.Fatalf("retained body = %d, want cap %d", len(txs[0].Body), maxRetainedBody)
	}
}

func TestHTTP10CloseDelimitedResponse(t *testing.T) {
	// HTTP/1.0 without Content-Length: the body runs to connection close.
	resp := "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\n<html>old school</html>"
	c2s, s2c := buildConv("GET /legacy HTTP/1.0\r\nHost: old.com\r\n\r\n", resp)
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d, want 1", len(txs))
	}
	if string(txs[0].Body) != "<html>old school</html>" {
		t.Fatalf("body = %q", txs[0].Body)
	}
	if txs[0].BodySize != len("<html>old school</html>") {
		t.Fatalf("size = %d", txs[0].BodySize)
	}
}

func TestHeadRequestNoBodyConfusion(t *testing.T) {
	// HEAD responses carry headers but no body; the next response must
	// still parse correctly thanks to positional request matching.
	reqs := "HEAD /a HTTP/1.1\r\nHost: h.com\r\n\r\n" +
		"GET /b HTTP/1.1\r\nHost: h.com\r\n\r\n"
	resps := "HTTP/1.1 200 OK\r\nContent-Length: 999\r\nContent-Type: text/html\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	c2s, s2c := buildConv(reqs, resps)
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 2 {
		t.Fatalf("transactions = %d, want 2", len(txs))
	}
	if txs[0].Method != "HEAD" || txs[0].BodySize != 0 {
		t.Fatalf("HEAD tx = %+v", txs[0])
	}
	if string(txs[1].Body) != "ok" {
		t.Fatalf("second body = %q", txs[1].Body)
	}
}
