package httpstream

import (
	"net/netip"
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

func FuzzParseRequests(f *testing.F) {
	for _, s := range malformedSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		parseRequests(data)
	})
}

func FuzzParseResponses(f *testing.F) {
	for _, s := range malformedSeeds {
		f.Add([]byte(s))
	}
	// A fixed pipelined request list so positional matching (HEAD and
	// status-only semantics) is exercised against arbitrary response bytes.
	reqs := parseRequests([]byte(
		"HEAD /h HTTP/1.1\r\nHost: a\r\n\r\n" +
			"GET /1 HTTP/1.1\r\nHost: a\r\n\r\n" +
			"GET /2 HTTP/1.1\r\nHost: a\r\n\r\n"))
	// diffResponses checks every body against the io.ReadAll reference
	// (kept bytes, size, error nil-ness, stream position) and against
	// checkRetained.
	f.Fuzz(func(t *testing.T, data []byte) {
		diffResponses(t, "fuzz input", data, reqs)
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
		for _, tx := range ExtractPair(&pcap.Stream{Key: key, Data: creq}, &pcap.Stream{Key: key.Reverse(), Data: sresp}) {
			checkRetained(t, tx.Body, ClassifyPayload(tx.URI, tx.ContentType).CarriesRedirects())
		}
		diffResponses(t, "server direction", sresp, parseRequests(creq))
	})
}
