package httpstream

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"strings"
	"testing"
)

func gzipBytes(t *testing.T, s string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func deflateBytes(t *testing.T, s string) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGzipResponseDecoded(t *testing.T) {
	html := `<html><iframe src="http://exploit.evil.ru/gate"></iframe></html>`
	gz := gzipBytes(t, html)
	resp := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Encoding: gzip\r\nContent-Length: %d\r\n\r\n", len(gz))
	c2s, s2c := buildConv("GET /p HTTP/1.1\r\nHost: landing.com\r\n\r\n", resp+string(gz))
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 {
		t.Fatalf("transactions = %d", len(txs))
	}
	if string(txs[0].Body) != html {
		t.Fatalf("body not decoded: %q", txs[0].Body)
	}
	// BodySize stays the wire size.
	if txs[0].BodySize != len(gz) {
		t.Fatalf("body size = %d, want wire size %d", txs[0].BodySize, len(gz))
	}
}

func TestDeflateResponseDecoded(t *testing.T) {
	html := "<html>deflated content</html>"
	fl := deflateBytes(t, html)
	resp := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Encoding: deflate\r\nContent-Length: %d\r\n\r\n", len(fl))
	c2s, s2c := buildConv("GET /p HTTP/1.1\r\nHost: a.com\r\n\r\n", resp+string(fl))
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 || string(txs[0].Body) != html {
		t.Fatalf("deflate not decoded: %q", txs[0].Body)
	}
}

func TestCorruptGzipKeptRaw(t *testing.T) {
	raw := "definitely-not-gzip"
	resp := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: %d\r\n\r\n%s", len(raw), raw)
	c2s, s2c := buildConv("GET /p HTTP/1.1\r\nHost: a.com\r\n\r\n", resp)
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 1 || string(txs[0].Body) != raw {
		t.Fatalf("corrupt gzip must be kept raw: %q", txs[0].Body)
	}
}

func TestDecodeContentIdentity(t *testing.T) {
	body := []byte("plain")
	if got, ok := decode(bytes.NewReader(body), ""); ok || got != nil {
		t.Fatalf("identity encoding decoded to %q: the body must be kept raw", got)
	}
	if got, ok := decode(bytes.NewReader(body), contentCoding("br")); ok || got != nil {
		t.Fatalf("unknown encoding decoded to %q: the body must be kept raw", got)
	}
}

func TestDecodedBodyCapped(t *testing.T) {
	huge := strings.Repeat("A", maxRetainedBody*3)
	got, ok := decode(bytes.NewReader(gzipBytes(t, huge)), "gzip")
	if !ok || len(got) != maxRetainedBody || cap(got) > maxRetainedBody {
		t.Fatalf("decoded body: ok %v, len %d, cap %d; want the first %d bytes in a buffer no larger", ok, len(got), cap(got), maxRetainedBody)
	}
}
