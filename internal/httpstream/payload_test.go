package httpstream

import (
	"fmt"
	"strings"
	"testing"
)

func TestCryptExtensionCount(t *testing.T) {
	if len(cryptExtensions) != CryptExtensionCount {
		t.Fatalf("crypt extensions = %d, want %d", len(cryptExtensions), CryptExtensionCount)
	}
}

// TestBodyKeptIffClassCarriesRedirects pins the retention rule on the
// capture path: every payload class, reached by URI extension and by
// Content-Type, keeps its body exactly when it CarriesRedirects, and
// BodySize is the body's size on the wire either way.
func TestBodyKeptIffClassCarriesRedirects(t *testing.T) {
	page := strings.Repeat(`<meta http-equiv="refresh" content="0;url=http://next.example/">`, 8)
	type row struct {
		uri, ctype string
		want       PayloadClass
		coding     string // "gzip": the body goes out gzip-coded
		chunked    bool
	}
	byExtension := []row{
		{"/doc.docx", "", PayloadOther, "", false},
		{"/landing.html", "", PayloadHTML, "", false},
		{"/s.js", "", PayloadJS, "", false},
		{"/site.css", "", PayloadCSS, "", false},
		{"/i.png", "", PayloadImage, "", false},
		{"/notes.txt", "", PayloadText, "", false},
		{"/api.json", "", PayloadJSON, "", false},
		{"/a.zip", "", PayloadArchive, "", false},
		{"/doc.pdf", "", PayloadPDF, "", false},
		{"/setup.exe", "", PayloadEXE, "", false},
		{"/x.jar", "", PayloadJAR, "", false},
		{"/y.swf", "", PayloadSWF, "", false},
		{"/z.xap", "", PayloadXAP, "", false},
		{"/app.dmg", "", PayloadDMG, "", false},
		{"/files.locky", "", PayloadCrypt, "", false},
	}
	byContentType := []row{
		{"/dl", "application/octet-stream", PayloadOther, "", false},
		{"/p", "text/html; charset=utf-8", PayloadHTML, "", false},
		{"/p", "application/javascript", PayloadJS, "", false},
		{"/p", "text/css", PayloadCSS, "", false},
		{"/p", "image/gif", PayloadImage, "", false},
		{"/p", "text/plain", PayloadText, "", false},
		{"/p", "application/json", PayloadJSON, "", false},
		{"/p", "application/zip", PayloadArchive, "", false},
		{"/p", "application/pdf", PayloadPDF, "", false},
		{"/p", "application/x-msdownload", PayloadEXE, "", false},
		{"/p", "application/java-archive", PayloadJAR, "", false},
		{"/p", "application/x-shockwave-flash", PayloadSWF, "", false},
		{"/p", "application/x-silverlight-app", PayloadXAP, "", false},
		{"/p", "application/x-apple-diskimage", PayloadDMG, "", false},
	}
	special := []row{
		{"/", "", PayloadHTML, "", false},                   // bare path, no type: a page fetch
		{"/gate.php", "image/png", PayloadHTML, "", false},  // the extension wins
		{"/s.js", "", PayloadJS, "gzip", false},             // kept decoded
		{"/p", "text/javascript", PayloadJS, "gzip", true},  // kept decoded, chunked
		{"/y.swf", "", PayloadSWF, "", true},                // chunked, dropped
		{"/i.jpg", "text/html", PayloadImage, "gzip", true}, // coded, dropped
	}
	covered := map[PayloadClass]bool{}
	for _, r := range byExtension {
		covered[r.want] = true
	}
	for c := PayloadOther; c < NumPayloadClasses; c++ {
		if !covered[c] {
			t.Fatalf("no row reaches %v by extension", c)
		}
	}

	for _, r := range append(append(byExtension, byContentType...), special...) {
		name := fmt.Sprintf("%s as %q", r.uri, r.ctype)
		wire := []byte(page)
		var head strings.Builder
		head.WriteString("HTTP/1.1 200 OK\r\n")
		if r.ctype != "" {
			fmt.Fprintf(&head, "Content-Type: %s\r\n", r.ctype)
		}
		if r.coding != "" {
			wire = gzipBytes(t, page)
			head.WriteString("Content-Encoding: gzip\r\n")
		}
		body := string(wire)
		if r.chunked {
			head.WriteString("Transfer-Encoding: chunked\r\n")
			half := len(wire) / 2
			body = fmt.Sprintf("%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n", half, wire[:half], len(wire)-half, wire[half:])
		} else {
			fmt.Fprintf(&head, "Content-Length: %d\r\n", len(wire))
		}
		head.WriteString("\r\n")
		c2s, s2c := buildConv("GET "+r.uri+" HTTP/1.1\r\nHost: a.example\r\n\r\n", head.String()+body)
		txs := ExtractPairInto(nil, c2s, s2c, nil)
		if len(txs) != 1 || txs[0].StatusCode != 200 {
			t.Fatalf("%s: %d transactions, want one answered", name, len(txs))
		}
		tx := txs[0]
		if got := ClassifyPayload(tx.URI, tx.ContentType); got != r.want {
			t.Fatalf("%s: class %v, want %v", name, got, r.want)
		}
		if tx.BodySize != len(wire) {
			t.Fatalf("%s: BodySize %d, want the %d bytes on the wire", name, tx.BodySize, len(wire))
		}
		if r.want.CarriesRedirects() {
			if string(tx.Body) != page {
				t.Fatalf("%s: kept %.40q, want the %d-byte page", name, tx.Body, len(page))
			}
		} else if tx.Body != nil {
			t.Fatalf("%s: kept %d body bytes of a %v", name, len(tx.Body), r.want)
		}
	}
}
