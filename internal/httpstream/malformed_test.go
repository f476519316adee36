package httpstream

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestTruncatedGzipDegradesToPlaintextPrefix pins the degraded path for a
// capture cut mid-transfer: the advertised Content-Length exceeds what is
// on the wire, and the gzip stream is incomplete. The transaction must
// survive with the decodable plaintext prefix instead of being dropped.
func TestTruncatedGzipDegradesToPlaintextPrefix(t *testing.T) {
	html := strings.Repeat("<div>malvertising chain hop</div>\n", 200)
	gz := gzipBytes(t, html)
	cut := gz[:len(gz)/2]
	resp := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Encoding: gzip\r\nContent-Length: %d\r\n\r\n", len(gz))
	c2s, s2c := buildConv("GET /ad HTTP/1.1\r\nHost: cdn.evil/\r\n\r\n", resp+string(cut))

	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d, want the truncated one kept", len(txs))
	}
	tx := txs[0]
	if tx.StatusCode != 200 || tx.BodySize != len(cut) {
		t.Fatalf("status=%d bodySize=%d, want 200/%d", tx.StatusCode, tx.BodySize, len(cut))
	}
	if len(tx.Body) == 0 || !strings.HasPrefix(html, string(tx.Body)) {
		t.Fatalf("body is not a plaintext prefix: %.60q", tx.Body)
	}
}

// TestBadChunkedFramingDegradesToRaw pins the new raw-prefix fallback: a
// chunked response whose first chunk-size line is garbage used to yield an
// empty body; now the raw stream remainder is retained as evidence.
func TestBadChunkedFramingDegradesToRaw(t *testing.T) {
	payload := "ZZZZ\r\n<html>not really chunked</html>\r\n0\r\n\r\n"
	resp := "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nTransfer-Encoding: chunked\r\n\r\n" + payload
	c2s, s2c := buildConv("GET /x HTTP/1.1\r\nHost: broken.example\r\n\r\n", resp)

	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d, want the malformed one kept", len(txs))
	}
	tx := txs[0]
	if tx.StatusCode != 200 {
		t.Fatalf("status = %d", tx.StatusCode)
	}
	if string(tx.Body) != payload || tx.BodySize != len(payload) {
		t.Fatalf("body = %.60q (size %d), want the raw remainder", tx.Body, tx.BodySize)
	}
}

// TestBadChunkedRawFallbackCapped pins that the raw fallback still honors
// the retained-body cap.
func TestBadChunkedRawFallbackCapped(t *testing.T) {
	payload := "XXXX\r\n" + strings.Repeat("A", maxRetainedBody*2)
	resp := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + payload
	c2s, s2c := buildConv("GET /big HTTP/1.1\r\nHost: broken.example\r\n\r\n", resp)

	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d", len(txs))
	}
	if len(txs[0].Body) != maxRetainedBody || txs[0].BodySize != len(payload) {
		t.Fatalf("body len = %d (size %d), want capped at %d with full wire size",
			len(txs[0].Body), txs[0].BodySize, maxRetainedBody)
	}
}

// TestGarbageResponseStreamKeepsRequests pins that a server direction the
// parser cannot read at all still yields request-only transactions.
func TestGarbageResponseStreamKeepsRequests(t *testing.T) {
	c2s, s2c := buildConv(simpleGet, "\x00\x01\x02 this is not HTTP at all")
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d, want the unmatched request kept", len(txs))
	}
	if txs[0].StatusCode != 0 || txs[0].Method != "GET" {
		t.Fatalf("tx = %+v, want request-only transaction", txs[0])
	}
}

// TestProperlyChunkedStillDecodes guards the fallback against false
// positives: well-formed chunked bodies must keep decoding normally.
func TestProperlyChunkedStillDecodes(t *testing.T) {
	body := "<html>chunked ok</html>"
	chunked := fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(body), body)
	resp := "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked
	c2s, s2c := buildConv("GET /ok HTTP/1.1\r\nHost: fine.example\r\n\r\n", resp)

	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 || !bytes.Equal(txs[0].Body, []byte(body)) {
		t.Fatalf("chunked decode broken: %+v", txs)
	}
}

// TestDegradedBodySurvivesPooledAssemblerReuse pins that the raw-fallback
// body is detached from the stream buffer: ReadCapture parses a
// conversation out of buffers the assembler reuses for the next one, so a
// body still aliasing them would be overwritten within the same capture.
func TestDegradedBodySurvivesPooledAssemblerReuse(t *testing.T) {
	payload := "ZZZZ\r\n<html>evidence we must keep</html>\r\n0\r\n\r\n"
	resp := "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nTransfer-Encoding: chunked\r\n\r\n" + payload
	pkts := buildConvPackets(t, "GET /x HTTP/1.1\r\nHost: broken.example\r\n\r\n", resp)

	// Later conversations big enough to overwrite the buffer bytes the
	// first body would still be aliasing.
	filler := strings.Repeat("B", len(resp)*4)
	fillResp := "HTTP/1.1 200 OK\r\nContent-Length: " + fmt.Sprint(len(filler)) + "\r\n\r\n" + filler
	for i := 0; i < 4; i++ {
		fill := buildConvPackets(t, "GET /fill HTTP/1.1\r\nHost: filler.example\r\n\r\n", fillResp)
		for j := range fill {
			fill[j].Timestamp = fill[j].Timestamp.Add(time.Duration(i+1) * time.Second)
		}
		pkts = append(pkts, fill...)
	}
	txs := readPackets(t, pkts)
	if len(txs) != 5 || string(txs[0].Body) != payload {
		t.Fatalf("%d transactions, degraded body = %.60q, want 5 and the raw remainder", len(txs), txs[0].Body)
	}
}
