package httpstream

import (
	"net/http"
	"net/netip"
	"reflect"
	"testing"

	"dynaminer/internal/pcap"
)

// Seed corpus: the handcrafted edge cases below plus realistic pipelined
// traffic generated from the synth corpus, checked in under
// testdata/fuzz/<FuzzName>/ (regenerate with TestWriteFuzzSeedCorpus in
// internal/synth).

// malformedSeeds are handcrafted edge cases: truncation points, bad
// framing, binary garbage, and header pathologies.
var malformedSeeds = []string{
	"",
	"\x00\x01\x02\x03",
	"GET",
	"GET / HTTP/1.1\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\n\r\n",
	"POST /u HTTP/1.1\r\nHost: a\r\nContent-Length: 99\r\n\r\nshort",
	"POST /u HTTP/1.1\r\nHost: a\r\nContent-Length: -1\r\n\r\n",
	"HTTP/1.1 200 OK\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nshort",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZZ\r\nbody",
	"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: 4\r\n\r\n\x1f\x8b\x08\x00",
	"HTTP/1.1 304 Not Modified\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
	"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\nGET /2 HTTP/1.1\r\n\r\n",
}

// The three targets run the in-place parser and the net/http oracle
// (parse_ref_test.go) side by side: both must accept and reject the same
// messages and agree on every parsed field, stream offset, kept body byte
// and wire size. Each also holds the in-place parse to an allocation
// ceiling, so no length field in the input can size an allocation.

// decodeCost bounds what decoding one kept body allocates: the
// decompressor's state and at most maxRetainedBody bytes of plaintext.
const decodeCost = 192 << 10

// checkAllocs fails t when a parse of input bytes that decoded the given
// number of bodies allocated more than 64 bytes per input byte (a header
// field's share of the head string, the map and the value backing, or a
// kept body byte), decodeCost per decoded body, and decodeCost besides.
func checkAllocs(t *testing.T, allocated uint64, input, decoded int) {
	t.Helper()
	if limit := uint64(64*input + (decoded+1)*decodeCost); allocated > limit {
		t.Fatalf("parsing %d bytes (%d bodies decoded) allocated %d, want at most %d", input, decoded, allocated, limit)
	}
}

// decoded counts the kept bodies among resps that a content coding was
// undone on (or tried on).
func decoded(hdrs []http.Header, bodies [][]byte) int {
	n := 0
	for i, h := range hdrs {
		if bodies[i] != nil && contentCoding(h.Get("Content-Encoding")) != "" {
			n++
		}
	}
	return n
}

func FuzzParseRequests(f *testing.F) {
	for _, s := range malformedSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAllocs(t, allocatedBytes(func() { new(streamParser).requests(data) }), len(data), 0)
		diffRequests(t, "fuzz input", data)
	})
}

func FuzzParseResponses(f *testing.F) {
	for _, s := range malformedSeeds {
		f.Add([]byte(s))
	}
	// A fixed pipelined request list so positional matching (HEAD and
	// status-only semantics) is exercised against arbitrary response bytes.
	client := []byte("HEAD /h HTTP/1.1\r\nHost: a\r\n\r\n" +
		"GET /1 HTTP/1.1\r\nHost: a\r\n\r\n" +
		"GET /2 HTTP/1.1\r\nHost: a\r\n\r\n")
	reqs := new(streamParser).requests(client)
	f.Fuzz(func(t *testing.T, data []byte) {
		var resps []respMsg
		allocated := allocatedBytes(func() { resps = new(streamParser).responses(data, reqs) })
		hdrs, bodies := make([]http.Header, len(resps)), make([][]byte, len(resps))
		for i, r := range resps {
			hdrs[i], bodies[i] = r.hdr, r.body
		}
		checkAllocs(t, allocated, len(data), decoded(hdrs, bodies))
		diffResponses(t, "fuzz input", data, client)
	})
}

// checkRetained asserts the retention rule and the memory bound on a body:
// nothing kept unless the caller may keep it (its class carries
// redirects), and never more than maxRetainedBody bytes nor a larger
// backing array, whether kept as sent, decoded or degraded.
func checkRetained(t *testing.T, body []byte, mayKeep bool) {
	t.Helper()
	if !mayKeep && body != nil {
		t.Fatalf("kept %d body bytes of a class that carries no redirects", len(body))
	}
	if len(body) > maxRetainedBody || cap(body) > maxRetainedBody {
		t.Fatalf("kept %d body bytes in %d, cap is %d", len(body), cap(body), maxRetainedBody)
	}
}

func FuzzExtractPair(f *testing.F) {
	for _, s := range malformedSeeds {
		f.Add([]byte("GET / HTTP/1.1\r\nHost: a\r\n\r\n"), []byte(s))
		f.Add([]byte(s), []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"))
	}
	key := pcap.FlowKey{
		SrcIP:   netip.MustParseAddr("10.0.0.5"),
		DstIP:   netip.MustParseAddr("203.0.113.80"),
		SrcPort: 49200,
		DstPort: 80,
	}
	f.Fuzz(func(t *testing.T, creq, sresp []byte) {
		c2s, s2c := &pcap.Stream{Key: key, Data: creq}, &pcap.Stream{Key: key.Reverse(), Data: sresp}
		var got []Transaction
		allocated := allocatedBytes(func() { got = ExtractPairInto(nil, c2s, s2c, nil) })
		hdrs, bodies := make([]http.Header, len(got)), make([][]byte, len(got))
		for i, tx := range got {
			checkRetained(t, tx.Body, ClassifyPayload(tx.URI, tx.ContentType).CarriesRedirects())
			hdrs[i], bodies[i] = tx.RespHdr, tx.Body
		}
		checkAllocs(t, allocated, len(creq)+len(sresp), decoded(hdrs, bodies))
		if want := refExtractPair(c2s, s2c); !reflect.DeepEqual(got, want) {
			t.Fatalf("in-place parse:\n%s\noracle:\n%s", short(got), short(want))
		}
	})
}
