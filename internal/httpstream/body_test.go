package httpstream

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/pcap"
)

// corpusInputs returns every []byte argument of every checked-in fuzz
// corpus file under testdata/, in file order.
func corpusInputs(t *testing.T) map[string][][]byte {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus under testdata/: %v", err)
	}
	out := make(map[string][][]byte, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			quoted, ok := strings.CutPrefix(line, "[]byte(")
			if !ok {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			out[f] = append(out[f], []byte(s))
		}
		if len(out[f]) == 0 {
			t.Fatalf("%s: no []byte argument", f)
		}
	}
	return out
}

// TestBodyReaderMatchesReadAllReference is the differential that lets the
// body framing change shape: over the malformed and content-coding cases
// of this package's other tests, the fuzz seeds and corpus, and every
// framing the parser treats differently, the in-place parser keeps exactly
// what the net/http oracle with its io.ReadAll body step keeps.
func TestBodyReaderMatchesReadAllReference(t *testing.T) {
	html := strings.Repeat("<div>malvertising chain hop</div>\n", 200)
	gz := gzipBytes(t, html)
	bigGz := gzipBytes(t, strings.Repeat("A", maxRetainedBody*3))
	fl := deflateBytes(t, "<html>deflated content</html>")
	big := strings.Repeat("B", maxRetainedBody*2+777)
	withLength := func(head string, body []byte, announced int) string {
		return fmt.Sprintf("HTTP/1.1 200 OK\r\n%sContent-Length: %d\r\n\r\n%s", head, announced, body)
	}
	chunked := func(parts ...string) string {
		var sb strings.Builder
		for _, p := range parts {
			fmt.Fprintf(&sb, "%x\r\n%s\r\n", len(p), p)
		}
		return sb.String() + "0\r\n\r\n"
	}
	const chunkedHead = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
	const ok = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	cases := map[string]string{
		// malformed_test.go
		"truncated gzip":          withLength("Content-Encoding: gzip\r\n", gz[:len(gz)/2], len(gz)),
		"bad chunk size":          chunkedHead + "ZZZZ\r\n<html>not really chunked</html>\r\n0\r\n\r\n",
		"bad chunk size, capped":  chunkedHead + "XXXX\r\n" + strings.Repeat("A", maxRetainedBody*2),
		"not HTTP":                "\x00\x01\x02 this is not HTTP at all",
		"chunked":                 chunkedHead + chunked("<html>chunked ok</html>") + ok,
		"bad chunk size, gzip":    "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\n" + string(gz),
		"bad chunk size, at end":  chunkedHead,
		"bad chunk size, a byte":  chunkedHead + "Z",
		"chunk cut after a byte":  chunkedHead + "10\r\nx",
		"chunked, bad later size": chunkedHead + "3\r\nabc\r\nQQ\r\nrest",
		// gzip_test.go
		"gzip":                  withLength("Content-Encoding: gzip\r\n", gz, len(gz)) + ok,
		"x-gzip, spaced":        withLength("Content-Encoding:   X-GZip \r\n", gz, len(gz)) + ok,
		"deflate":               withLength("Content-Encoding: deflate\r\n", fl, len(fl)) + ok,
		"corrupt gzip":          withLength("Content-Encoding: gzip\r\n", []byte("definitely-not-gzip"), 19) + ok,
		"gzip over cap":         withLength("Content-Encoding: gzip\r\n", bigGz, len(bigGz)) + ok,
		"unknown coding":        withLength("Content-Encoding: br\r\n", []byte(big), len(big)) + ok,
		"corrupt gzip over cap": withLength("Content-Encoding: gzip\r\n", []byte(big), len(big)) + ok,
		"gzip, chunked":         "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(string(gz[:40]), string(gz[40:])) + ok,
		// Streamed decoding: the decompressor must see the body's bytes
		// and then a clean end, whatever ended the body on the wire.
		"gzip over cap, chunked":                  "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(string(bigGz[:100]), string(bigGz[100:])) + ok,
		"gzip, chunked, cut":                      "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(string(gz))[:len(gz)/2],
		"gzip, chunked, bad later size":           "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n\r\n" + fmt.Sprintf("%x\r\n%s\r\nQQ\r\n", len(gz), gz),
		"empty gzip, length over what follows":    withLength("Content-Encoding: gzip\r\n", gzipBytes(t, ""), 999),
		"corrupt deflate, length over the stream": withLength("Content-Encoding: deflate\r\n", []byte(big[:5000]), 9000),
		"gzip, read to close":                     "HTTP/1.0 200 OK\r\nContent-Encoding: gzip\r\n\r\n" + string(bigGz),
		"gzip with trailing bytes":                withLength("Content-Encoding: gzip\r\n", append(slices.Clone(gz), "trailing"...), len(gz)+8) + ok,
		// Framings the reader sizes differently.
		"length over what follows":                withLength("", nil, 999) + ok,
		"204 with length":                         "HTTP/1.1 204 No Content\r\nContent-Length: 5\r\n\r\n" + ok,
		"304 with length":                         "HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n" + ok,
		"zero length":                             withLength("", nil, 0) + ok,
		"length over the stream":                  withLength("", []byte("short"), 99),
		"length 9e18":                             withLength("", []byte("0123456789"), 9000000000000000000),
		"length, nothing follows":                 withLength("", nil, 5),
		"exactly the cap":                         withLength("", []byte(big[:maxRetainedBody]), maxRetainedBody) + ok,
		"over the cap":                            withLength("", []byte(big), len(big)) + ok,
		"over the cap, cut":                       withLength("", []byte(big[:maxRetainedBody+100]), len(big)),
		"under the cap, cut":                      withLength("", []byte(big[:1000]), len(big)),
		"chunked over the cap":                    chunkedHead + chunked(big[:70000], big[70000:]) + ok,
		"chunked over the cap, cut after it":      chunkedHead + chunked(big[:70000])[:69000],
		"chunked over the cap, bad size after it": chunkedHead + fmt.Sprintf("%x\r\n%s\r\nQQ\r\n", 70000, big[:70000]),
		"read to close":                           "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\n<html>old school</html>",
		"read to close over the cap":              "HTTP/1.0 200 OK\r\n\r\n" + big,
		"read to close, empty":                    "HTTP/1.0 200 OK\r\n\r\n",
		"pipelined":                               strings.Repeat(ok, 3) + withLength("", []byte(big), len(big)) + chunkedHead + chunked("a", "bc") + ok,
	}
	// Every case runs as the answer to a HEAD (a body-less first response,
	// whatever its framing says), to GETs of pages (kept bodies), to GETs
	// of images (bodies read and dropped), and to no known request.
	head := []byte("HEAD /h HTTP/1.1\r\nHost: a\r\n\r\nGET /1 HTTP/1.1\r\nHost: a\r\n\r\n")
	get := []byte(strings.Repeat("GET /1 HTTP/1.1\r\nHost: a\r\n\r\n", 8))
	img := []byte(strings.Repeat("GET /1.png HTTP/1.1\r\nHost: a\r\n\r\n", 8))
	fallbacks := 0
	for name, data := range cases {
		fallbacks += diffResponses(t, name+" (after HEAD)", []byte(data), head)
		fallbacks += diffResponses(t, name, []byte(data), get)
		fallbacks += diffResponses(t, name+" (image)", []byte(data), img)
		fallbacks += diffResponses(t, name+" (no requests)", []byte(data), nil)
	}
	if fallbacks == 0 {
		t.Fatal("no case took the raw-remainder fallback")
	}
	for i, s := range malformedSeeds {
		diffResponses(t, fmt.Sprintf("malformedSeeds[%d]", i), []byte(s), head)
		diffResponses(t, fmt.Sprintf("malformedSeeds[%d] (GET)", i), []byte(s), get)
	}
	for file, args := range corpusInputs(t) {
		// A FuzzExtractPair file holds a client and a server direction; the
		// single-argument files are read as a server direction.
		client := head
		if len(args) == 2 {
			client = args[0]
		}
		diffResponses(t, file, args[len(args)-1], client)
	}
}

// TestIdentityBodyDoesNotPinDownload pins the retained-capacity bugfix: a
// body kept as sent used to be a reslice of the whole download, so a
// Transaction for a 1 MiB response held 1 MiB for a 64 KiB prefix.
func TestIdentityBodyDoesNotPinDownload(t *testing.T) {
	body := strings.Repeat("D", 1<<20)
	reqs := "GET /big HTTP/1.1\r\nHost: a.com\r\n\r\nGET /next HTTP/1.1\r\nHost: a.com\r\n\r\n"
	resp := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	const next = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"

	c2s, s2c := buildConv(reqs, resp+next)
	txs := ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 2 || txs[1].StatusCode != 200 || string(txs[1].Body) != "ok" {
		t.Fatalf("pipelined response after the big body lost: %+v", txs)
	}
	if tx := txs[0]; cap(tx.Body) > maxRetainedBody || len(tx.Body) != maxRetainedBody || tx.BodySize != 1<<20 {
		t.Fatalf("big body: len %d cap %d size %d, want len %d, cap at most that, size %d",
			len(tx.Body), cap(tx.Body), tx.BodySize, maxRetainedBody, 1<<20)
	}

	// The same capture cut mid-body: the wire size is what arrived, and
	// parsing stops after that transaction.
	cut := len(resp) - len(body)/2
	c2s, s2c = buildConv(reqs, resp[:cut])
	txs = ExtractPairInto(nil, c2s, s2c, nil)
	if len(txs) != 2 || txs[1].StatusCode != 0 {
		t.Fatalf("cut capture: %d transactions, second status %d; want 2 with the second unanswered", len(txs), txs[len(txs)-1].StatusCode)
	}
	if tx := txs[0]; cap(tx.Body) > maxRetainedBody || len(tx.Body) != maxRetainedBody || tx.BodySize != len(body)/2 {
		t.Fatalf("cut body: len %d cap %d size %d, want len %d, cap at most that, size %d",
			len(tx.Body), cap(tx.Body), tx.BodySize, maxRetainedBody, len(body)/2)
	}
}

var bodySink []byte

// allocatedBytes returns the heap bytes f allocates, whatever a GC frees
// meanwhile.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// bodyCost returns the allocations and bytes that keeping the body of the
// single response in data adds to parsing it: the response parsed as the
// answer to a page, whose body is kept, less the same response parsed as
// the answer to an image, whose body is only counted.
func bodyCost(t *testing.T, data []byte) (allocs, size float64) {
	t.Helper()
	p := new(streamParser)
	page := p.requests([]byte("GET /index.html HTTP/1.1\r\nHost: a\r\n\r\n"))[0]
	image := p.requests([]byte("GET /banner.png HTTP/1.1\r\nHost: a\r\n\r\n"))[0]
	parse := func(req reqMsg) func() {
		return func() {
			resps := p.responses(data, []reqMsg{req})
			if len(resps) != 1 {
				panic("want one response")
			}
			bodySink = resps[0].body
		}
	}
	// Bytes are the cheapest of many single runs: a GC between the two
	// ReadMemStats calls is not the body's cost.
	measure := func(f func()) (allocs, size float64) {
		const runs = 200
		allocs = testing.AllocsPerRun(runs, f)
		least := ^uint64(0)
		for i := 0; i < runs; i++ {
			least = min(least, allocatedBytes(f))
		}
		return allocs, float64(least)
	}
	headAllocs, headBytes := measure(parse(image))
	allAllocs, allBytes := measure(parse(page))
	return allAllocs - headAllocs, allBytes - headBytes
}

// TestBodyBufferSizedOnce pins the two ends of sizing a kept body's
// buffer: a complete body is one allocation of its own size (io.ReadAll
// grew to 64 KiB through eleven), and an announced length the stream
// cannot hold, or that a body-less status merely repeats, buys nothing.
func TestBodyBufferSizedOnce(t *testing.T) {
	body := strings.Repeat("E", maxRetainedBody)
	complete := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	if allocs, size := bodyCost(t, []byte(complete)); allocs != 1 || size > 1.01*maxRetainedBody {
		t.Fatalf("complete %d-byte body: %v allocations, %.0f bytes; want 1 allocation of the body's size", len(body), allocs, size)
	}
	const hostile = "HTTP/1.1 200 OK\r\nContent-Length: 9000000000000000000\r\n\r\n0123456789"
	if _, size := bodyCost(t, []byte(hostile)); size >= 1024 {
		t.Fatalf("Content-Length 9e18 over 10 bytes allocates %.0f bytes for its body, want under 1 KiB", size)
	}
	if string(bodySink) != "0123456789" {
		t.Fatalf("hostile length kept %q", bodySink)
	}
	bodyless := "HTTP/1.1 304 Not Modified\r\nContent-Length: 60000\r\n\r\n" + body
	if allocs, _ := bodyCost(t, []byte(bodyless)); allocs != 0 {
		t.Fatalf("a 304's Content-Length costs %v allocations, want none: it announces no bytes", allocs)
	}
}

// TestDroppedBodiesAllocateNothing pins what the retention rule saves: a
// capture of 100 conversations, one 64 KiB image or EXE download each,
// once kept a copy of every body. Now their size adds under a tenth of
// their total to what ReadCapture allocates for the same capture with
// one-byte bodies (parsed headers and the capture's fixed costs, the same
// either way).
func TestDroppedBodiesAllocateNothing(t *testing.T) {
	const downloads, size = 100, 64 << 10
	allocated := func(size int) uint64 {
		var pkts []pcap.Packet
		for i := 0; i < downloads; i++ {
			uri, ctype := "/banner.png", "image/png"
			if i%2 == 1 {
				uri, ctype = "/update", "application/x-msdownload"
			}
			at := baseTime.Add(time.Duration(i) * time.Second)
			conv, err := pcap.BuildConversation(pcap.Conversation{
				ClientIP: clientIP, ServerIP: serverIP, ClientPort: uint16(40000 + i), ServerPort: 80,
				Exchanges: []pcap.Exchange{
					{ClientToServer: true, Payload: []byte("GET " + uri + " HTTP/1.1\r\nHost: cdn.example\r\n\r\n"), Timestamp: at},
					{ClientToServer: false, Payload: fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s",
						ctype, size, strings.Repeat("\x89", size)), Timestamp: at.Add(40 * time.Millisecond)},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, conv...)
		}
		var capture bytes.Buffer
		w := pcap.NewWriter(&capture)
		for _, p := range pkts {
			if err := w.WritePacket(p); err != nil {
				t.Fatal(err)
			}
		}
		read := func() {
			txs, err := ReadCapture(bytes.NewReader(capture.Bytes()))
			if err != nil || len(txs) != downloads {
				t.Fatalf("%d transactions, error %v; want %d", len(txs), err, downloads)
			}
			for _, tx := range txs {
				if tx.BodySize != size {
					t.Fatalf("%s: BodySize %d, want %d", tx.URI, tx.BodySize, size)
				}
			}
		}
		// The cheapest of several runs: sync.Pool drops one Put in four
		// under -race, and a remade parser is the pool's cost, not the
		// bodies'.
		least := ^uint64(0)
		for range 10 {
			least = min(least, allocatedBytes(read))
		}
		return least
	}
	small, full := allocated(1), allocated(size)
	t.Logf("ReadCapture of %d downloads: %d bytes allocated with 1-byte bodies, %d with %d-byte bodies", downloads, small, full, size)
	if full < small || full-small >= downloads*size/10 {
		t.Fatalf("%d dropped bodies of %d bytes add %d allocated bytes to ReadCapture's %d: at least a tenth of them",
			downloads, size, int64(full)-int64(small), small)
	}
}

// TestCodedBodyDecodesAsItStreams pins streamed decoding: a 16 MiB
// gzip-coded page was buffered whole before its first 64 KiB were
// decoded; now ExtractPairInto keeps that prefix for well under 1 MiB.
func TestCodedBodyDecodesAsItStreams(t *testing.T) {
	page := strings.Repeat("<p>filler paragraph of a very long landing page</p>\n", (16<<20)/52+1)
	var gz bytes.Buffer
	zw, err := gzip.NewWriterLevel(&gz, gzip.NoCompression) // 16 MiB on the wire too
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write([]byte(page)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	key := pcap.FlowKey{SrcIP: clientIP, DstIP: serverIP, SrcPort: 49200, DstPort: 80}
	c2s := &pcap.Stream{Key: key, Data: []byte("GET /landing HTTP/1.1\r\nHost: a.example\r\n\r\nGET /next HTTP/1.1\r\nHost: a.example\r\n\r\n")}
	s2c := &pcap.Stream{Key: key.Reverse(), Data: fmt.Appendf(nil,
		"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Encoding: gzip\r\nContent-Length: %d\r\n\r\n%s"+
			"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", gz.Len(), gz.Bytes())}
	var txs []Transaction
	ExtractPairInto(nil, c2s, s2c, nil)
	allocated := allocatedBytes(func() { txs = ExtractPairInto(nil, c2s, s2c, nil) })
	t.Logf("%d-byte gzip page: ExtractPairInto allocated %d bytes", gz.Len(), allocated)
	if len(txs) != 2 || txs[0].BodySize != gz.Len() || string(txs[0].Body) != page[:maxRetainedBody] || string(txs[1].Body) != "ok" {
		t.Fatalf("%d transactions; first: size %d, kept %.40q", len(txs), txs[0].BodySize, txs[0].Body)
	}
	if allocated >= 1<<20 {
		t.Fatalf("ExtractPairInto allocated %d bytes for a %d-byte gzip page, want under 1 MiB", allocated, gz.Len())
	}
}

// TestExtractAllAllocatesLinearly is the oracle for the extraction slab:
// ExtractPairInto once regrew its destination to an exact fit for every
// conversation, copying every transaction extracted so far, so ExtractAll
// allocated O(conversations x transactions) — 7.4x the bytes per
// transaction at 4 000 conversations than at 500.
func TestExtractAllAllocatesLinearly(t *testing.T) {
	perTx := func(convs int) float64 {
		c2s, s2c := buildConv(simpleGet+simpleGet, simpleResp+simpleResp)
		streams := make([]*pcap.Stream, 0, 2*convs)
		for i := 0; i < convs; i++ {
			up, down := *c2s, *s2c
			up.Key.SrcPort, down.Key.DstPort = uint16(1024+i), uint16(1024+i)
			streams = append(streams, &up, &down)
		}
		ExtractAll(streams[:2]) // warm the parser pool
		var txs []Transaction
		allocated := allocatedBytes(func() { txs = ExtractAll(streams) })
		if len(txs) != 2*convs {
			t.Fatalf("%d conversations: %d transactions, want %d", convs, len(txs), 2*convs)
		}
		return float64(allocated) / float64(len(txs))
	}
	small, large := perTx(500), perTx(4000)
	t.Logf("ExtractAll: %.0f B/tx at 500 conversations, %.0f B/tx at 4000", small, large)
	if large > 1.5*small {
		t.Fatalf("ExtractAll allocates %.0f B/tx at 4000 conversations against %.0f at 500 (%.2fx): extraction is not linear",
			large, small, large/small)
	}
}
