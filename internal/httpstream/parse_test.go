package httpstream

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/obs"
	"dynaminer/internal/pcap"
)

// scanCounted runs pkts through ScanCapture counting on a fresh
// Telemetry, and returns the transactions and the bytes counted unparsed.
func scanCounted(t *testing.T, pkts []pcap.Packet) ([]Transaction, int64) {
	t.Helper()
	tm := NewTelemetry(obs.NewRegistry(), nil)
	var txs []Transaction
	if _, err := ScanCapture(bytes.NewReader(writePackets(t, pkts)), tm, func(tx *Transaction) {
		txs = append(txs, *tx)
	}); err != nil {
		t.Fatal(err)
	}
	return txs, tm.unparsed.Value()
}

// TestParserQuirks runs each of net/http's parsing quirks through the
// in-place parser and the oracle: the transactions must be DeepEqual, and
// each case names the outcome net/http gives it.
func TestParserQuirks(t *testing.T) {
	const (
		get  = "GET /p HTTP/1.1\r\nHost: a.example\r\n\r\n"
		ok   = "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 2\r\n\r\nok"
		gets = get + get
	)
	big := strings.Repeat("v", 1<<20)
	const chunkedHead = "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nTransfer-Encoding: chunked\r\n\r\n"
	ext := func(n int) string { return ";" + strings.Repeat("e", n) }
	cases := []struct {
		name           string
		client, server string
		check          func(txs []Transaction) bool
	}{
		{"obs-fold", "GET /p HTTP/1.1\r\nHost: a.example\r\nX-Folded: one\r\n  two \r\n\tthree\r\n\r\n", ok,
			func(txs []Transaction) bool { return txs[0].ReqHdr.Get("X-Folded") == "one two three" }},
		{"obs-fold in a response", get, "HTTP/1.1 200 OK\r\nContent-Type: text/\r\n html\r\nContent-Length: 2\r\n\r\nok",
			func(txs []Transaction) bool { return txs[0].ContentType == "text/ html" }},
		{"obs-fold of a blank line", "GET /p HTTP/1.1\r\nHost: a.example\r\nX-Blank:\r\n \r\n\r\n", ok,
			func(txs []Transaction) bool { return txs[0].ReqHdr["X-Blank"][0] == "" }},
		{"equal duplicate Content-Length", get, "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 2\r\nContent-Length:  2 \r\n\r\nok",
			func(txs []Transaction) bool {
				return reflect.DeepEqual(txs[0].RespHdr["Content-Length"], []string{"2"}) && string(txs[0].Body) == "ok"
			}},
		{"differing duplicate Content-Length", get, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok",
			func(txs []Transaction) bool { return len(txs) == 1 && txs[0].StatusCode == 0 }},
		{"Content-Length with chunked", get,
			"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 99\r\nTransfer-Encoding: chunked\r\nTrailer: X-T\r\n\r\n2\r\nok\r\n0\r\nX-T: 1\r\n\r\n" + ok,
			func(txs []Transaction) bool {
				h := txs[0].RespHdr
				return string(txs[0].Body) == "ok" && h["Content-Length"] == nil && h["Transfer-Encoding"] == nil && h["Trailer"] == nil
			}},
		{"chunked on HTTP/1.0", get, "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
			func(txs []Transaction) bool { return string(txs[0].Body) == "2\r\nok\r\n0\r\n\r\n" }},
		{"bare LF", "GET /p HTTP/1.1\nHost: a.example\n\nGET /q HTTP/1.1\nHost: a.example\n\n",
			"HTTP/1.1 200 OK\nContent-Type: text/html\nContent-Length: 2\n\nok" + ok,
			func(txs []Transaction) bool {
				return len(txs) == 2 && txs[1].URI == "/q" && string(txs[0].Body) == "ok"
			}},
		{"1 MiB header line", "GET /p HTTP/1.1\r\nHost: a.example\r\nX-Big: " + big + "\r\n\r\n", ok,
			func(txs []Transaction) bool { return txs[0].ReqHdr.Get("X-Big") == big && txs[0].StatusCode == 200 }},
		{"lowercase header names", "GET /p HTTP/1.1\r\nhost: a.example\r\nuser-agent: ua\r\n\r\n",
			"HTTP/1.1 200 OK\r\ncontent-type: text/html\r\ncontent-length: 2\r\nx-ALL-caps: 1\r\n\r\nok",
			func(txs []Transaction) bool {
				tx := txs[0]
				return tx.Host == "a.example" && tx.UserAgent() == "ua" && tx.ContentType == "text/html" && tx.RespHdr["X-All-Caps"] != nil
			}},
		{"space before the colon", "GET /p HTTP/1.1\r\nHost: a.example\r\nUser-Agent : ua\r\n\r\n", ok,
			func(txs []Transaction) bool { return txs[0].ReqHdr["User-Agent "] != nil && txs[0].UserAgent() == "" }},
		{"absolute-form target", "GET http://abs.example:8080/p?q=1 HTTP/1.1\r\nHost: ignored.example\r\n\r\n", ok,
			func(txs []Transaction) bool {
				return txs[0].Host == "abs.example:8080" && txs[0].URI == "/p?q=1" && txs[0].ReqHdr["Host"] == nil
			}},
		{"asterisk target", "OPTIONS * HTTP/1.1\r\nHost: a.example\r\n\r\n", ok,
			func(txs []Transaction) bool { return txs[0].URI == "*" }},
		{"escaped target", "GET /a%2Fb/c\"d?q=%zz HTTP/1.1\r\nHost: a.example\r\n\r\n", ok,
			func(txs []Transaction) bool { return txs[0].URI == "/a/b/c%22d?q=%zz" }},
		{"CONNECT authority", "CONNECT tunnel.example:443 HTTP/1.1\r\n\r\n", "HTTP/1.1 200 Connection established\r\n\r\n",
			func(txs []Transaction) bool { return txs[0].Host == "tunnel.example:443" && txs[0].URI == "/" }},
		{"Pragma: no-cache", "GET /p HTTP/1.1\r\nHost: a.example\r\nPragma: no-cache\r\n\r\n", ok,
			func(txs []Transaction) bool { return txs[0].ReqHdr.Get("Cache-Control") == "no-cache" }},
		{"missing Host", "GET /p HTTP/1.1\r\n\r\n", ok,
			func(txs []Transaction) bool { return txs[0].Host == "" && txs[0].StatusCode == 200 }},
		{"duplicated Host", "GET /p HTTP/1.1\r\nHost: a.example\r\nHost: b.example\r\n\r\n" + get, ok,
			func(txs []Transaction) bool { return len(txs) == 0 }},
		{"HEAD answered with a length", "HEAD /p HTTP/1.1\r\nHost: a.example\r\n\r\n" + get,
			"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\n" + ok,
			func(txs []Transaction) bool { return txs[0].BodySize == 0 && string(txs[1].Body) == "ok" }},
		{"204 with a length", gets, "HTTP/1.1 204 No Content\r\nContent-Length: 5\r\n\r\n" + ok,
			func(txs []Transaction) bool { return txs[0].BodySize == 0 && string(txs[1].Body) == "ok" }},
		{"304 with a length", gets, "HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n" + ok,
			func(txs []Transaction) bool {
				return txs[0].BodySize == 0 && txs[0].RespHdr.Get("Content-Length") == "5" && string(txs[1].Body) == "ok"
			}},
		{"status line with no reason phrase", get, "HTTP/1.1 404\r\nContent-Length: 0\r\n\r\n",
			func(txs []Transaction) bool { return txs[0].StatusCode == 404 }},
		{"Connection: close on HTTP/1.1", gets, "HTTP/1.1 200 OK\r\nConnection: keep-alive, Close\r\nContent-Length: 2\r\n\r\nok" +
			"HTTP/1.0 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
			func(txs []Transaction) bool {
				return txs[0].RespHdr["Connection"] == nil && txs[1].RespHdr["Connection"] != nil
			}},
		{"chunk-size line of 4095 and 4096 bytes", gets,
			chunkedHead + "1" + ext(4091) + "\r\nX\r\n0\r\n\r\n" + chunkedHead + "1" + ext(4092) + "\r\nX\r\n0\r\n\r\n",
			func(txs []Transaction) bool {
				return string(txs[0].Body) == "X" && txs[1].StatusCode == 200 && txs[1].BodySize == len("1"+ext(4092)+"\r\nX\r\n0\r\n\r\n")
			}},
		{"chunk extensions past net/http's allowance", gets,
			chunkedHead + strings.Repeat("1"+ext(4000)+"\r\nX\r\n", 5) + "0\r\n\r\n" + ok,
			func(txs []Transaction) bool { return string(txs[0].Body) == "XXXX" && txs[1].StatusCode == 0 }},
		{"trailer whose end is past 4 KiB", gets,
			chunkedHead + "1\r\nX\r\n0\r\nX-T: " + strings.Repeat("t", 5000) + "\r\n\r\n" + ok,
			func(txs []Transaction) bool { return string(txs[0].Body) == "X" && txs[1].StatusCode == 0 }},
		{"trailer naming Content-Length", gets, "HTTP/1.1 200 OK\r\nTrailer: X-A, content-length\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n" + ok,
			func(txs []Transaction) bool { return txs[0].StatusCode == 0 && txs[1].StatusCode == 0 }},
	}
	for _, tc := range cases {
		c2s, s2c := buildConv(tc.client, tc.server)
		got := ExtractPairInto(nil, c2s, s2c, nil)
		if want := refExtractPair(c2s, s2c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: in-place parse and oracle differ:\n got %s\nwant %s", tc.name, short(got), short(want))
			continue
		}
		if !tc.check(got) {
			t.Errorf("%s: both parsers give %s", tc.name, short(got))
		}
	}
}

// TestParsedMessageAllocs pins what the in-place parser allocates: the
// 8-message pipelined conversation of BenchmarkExtractPairPooled, with
// bodies nothing keeps, costs at most four allocations per message head of
// at most eight fields — the head's string, the header map and its one
// group, and the values' shared backing — and nothing else. The parser is
// warm and private: sync.Pool drops a quarter of its Puts under -race, and
// TestPooledParseSteadyStateAllocs pins the pooled scaffolding.
func TestParsedMessageAllocs(t *testing.T) {
	const resp = "HTTP/1.1 200 OK\r\nContent-Type: image/png\r\nContent-Length: 4\r\nCache-Control: max-age=60\r\n\r\n\x89PNG"
	req := strings.Replace(simpleGet, "/index.html", "/banner.png", 1)
	c2s, s2c := []byte(strings.Repeat(req, 8)), []byte(strings.Repeat(resp, 8))
	p := new(streamParser)
	resps := p.responses(s2c, p.requests(c2s))
	if len(resps) != 8 || resps[7].status != 200 || resps[7].bodySize != 4 || resps[7].body != nil {
		t.Fatalf("parsed %d responses, the last %+v; want 8, bodies sized and dropped", len(resps), resps[len(resps)-1])
	}
	const heads = 16
	allocs := testing.AllocsPerRun(200, func() { p.responses(s2c, p.requests(c2s)) })
	t.Logf("%v allocations for %d message heads", allocs, heads)
	if allocs > 4*heads {
		t.Fatalf("%v allocations for %d message heads, want at most %d", allocs, heads, 4*heads)
	}
}

// TestNonHTTPCountsUnparsedBytes feeds a TLS handshake on port 80 and an
// SSH banner exchange on 8080: neither yields a transaction, and every one
// of their bytes is counted as unparsed.
func TestNonHTTPCountsUnparsedBytes(t *testing.T) {
	clientHello := append([]byte{0x16, 0x03, 0x01, 0x00, 0x31, 0x01, 0x00, 0x00, 0x2d, 0x03, 0x03},
		bytes.Repeat([]byte{0x5a, 0x0a, 0x20}, 15)...)
	serverHello := append([]byte{0x16, 0x03, 0x03, 0x00, 0x2a, 0x02, 0x00, 0x00, 0x26, 0x03, 0x03},
		bytes.Repeat([]byte{0xa5}, 38)...)
	sshServer, sshClient := []byte("SSH-2.0-OpenSSH_9.6 Ubuntu-3\r\n"), []byte("SSH-2.0-Go\r\n")
	var pkts []pcap.Packet
	for i, ex := range [][]pcap.Exchange{
		{{ClientToServer: true, Payload: clientHello, Timestamp: baseTime}, {Payload: serverHello, Timestamp: baseTime.Add(time.Millisecond)}},
		{{Payload: sshServer, Timestamp: baseTime.Add(time.Second)}, {ClientToServer: true, Payload: sshClient, Timestamp: baseTime.Add(time.Second + time.Millisecond)}},
	} {
		conv, err := pcap.BuildConversation(pcap.Conversation{
			ClientIP: clientIP, ServerIP: netip.MustParseAddr("203.0.113.9"), ClientPort: uint16(49500 + i), ServerPort: []uint16{80, 8080}[i],
			Exchanges: ex,
		})
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, conv...)
	}
	txs, unparsed := scanCounted(t, pkts)
	if want := len(clientHello) + len(serverHello) + len(sshServer) + len(sshClient); len(txs) != 0 || unparsed != int64(want) {
		t.Fatalf("%d transactions, %d bytes counted unparsed; want none and %d", len(txs), unparsed, want)
	}
}

// TestLoneNonRequestDirectionCountsUnparsedBytes: a capture that holds only
// the server's side of a conversation — a TLS ServerHello on 443, an SSH
// banner on 22 — has no direction that looks like a request, so orient
// pairs nothing. The scan and the extraction of the lone direction both
// yield no transaction and count every payload byte as unparsed; the
// collecting extractor, which counts nothing, yields no transaction either.
func TestLoneNonRequestDirectionCountsUnparsedBytes(t *testing.T) {
	serverHello := append([]byte{0x16, 0x03, 0x03, 0x00, 0x2a, 0x02, 0x00, 0x00, 0x26, 0x03, 0x03},
		bytes.Repeat([]byte{0xa5}, 38)...)
	sshBanner := []byte("SSH-2.0-OpenSSH_9.6 Ubuntu-3\r\n")
	for _, c := range []struct {
		name    string
		port    uint16
		payload []byte
	}{{"tls-server-hello", 443, serverHello}, {"ssh-banner", 22, sshBanner}} {
		conv, err := pcap.BuildConversation(pcap.Conversation{
			ClientIP: clientIP, ServerIP: serverIP, ClientPort: 49700, ServerPort: c.port,
			Exchanges: []pcap.Exchange{{Payload: c.payload, Timestamp: baseTime}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var pkts []pcap.Packet // the server's frames only
		for _, p := range conv {
			var f pcap.Frame
			if err := pcap.DecodeFrameInto(&f, p.Data); err != nil {
				t.Fatal(err)
			} else if f.SrcPort == c.port {
				pkts = append(pkts, p)
			}
		}
		for _, path := range []struct {
			name    string
			extract func() ([]Transaction, int64)
		}{
			{"scan", func() ([]Transaction, int64) { return scanCounted(t, pkts) }},
			{"extract", func() ([]Transaction, int64) {
				tm := NewTelemetry(obs.NewRegistry(), nil)
				return extractConversation(nil, assemble(pkts)[0], nil, tm), tm.unparsed.Value()
			}},
		} {
			if txs, unparsed := path.extract(); len(txs) != 0 || unparsed != int64(len(c.payload)) {
				t.Errorf("%s via %s: %d transactions, %d bytes counted unparsed; want none and %d",
					c.name, path.name, len(txs), unparsed, len(c.payload))
			}
		}
		if txs := ExtractAll(assemble(pkts)); len(txs) != 0 {
			t.Errorf("%s via collect: %d transactions; want none", c.name, len(txs))
		}
	}
}

// TestUnparsedBytesStartAtTheRejectedHead: a conversation that turns into
// something else after a good exchange counts only the bytes from the
// first head the parser rejected.
func TestUnparsedBytesStartAtTheRejectedHead(t *testing.T) {
	const junk = "\x00\x01 not HTTP\r\n\r\n"
	p := new(streamParser)
	reqs := p.requests([]byte(simpleGet + junk))
	resps := p.responses([]byte(simpleResp+junk+junk), reqs)
	if len(reqs) != 1 || len(resps) != 1 || p.unparsed != 3*len(junk) {
		t.Fatalf("%d requests, %d responses, %d bytes unparsed; want 1, 1 and %d", len(reqs), len(resps), p.unparsed, 3*len(junk))
	}
	if h := reqs[0].hdr; h.Get("Host") != "" || reqs[0].host != "example.com" || len(h) != 5 {
		t.Fatalf("request header %v, host %q: want Host out of the map", h, reqs[0].host)
	}
}
