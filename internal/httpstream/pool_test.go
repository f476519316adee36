package httpstream

import (
	"strings"
	"testing"

	"dynaminer/internal/pcap"
)

// TestPooledParseSteadyStateAllocs pins the zero-alloc contract of the
// pooled parse scaffolding: once the pool is warm, a conversation whose
// directions carry no messages runs ExtractPairInto with ZERO allocations
// — the head scratch, the reqMsg/respMsg slices, and the metrics all come
// from reuse. What a parsed message allocates (its head's string, header
// map and value backing, which leave with the Transaction) is pinned by
// TestParsedMessageAllocs.
func TestPooledParseSteadyStateAllocs(t *testing.T) {
	c2s, s2c := buildConv(simpleGet, simpleResp)
	empty := *c2s
	empty.Data = nil
	emptyResp := *s2c
	emptyResp.Data = nil
	dst := make([]Transaction, 0, 8)
	// Warm the pool and any lazy metric state.
	dst = ExtractPairInto(dst[:0], &empty, &emptyResp, nil)
	if n := testing.AllocsPerRun(200, func() {
		dst = ExtractPairInto(dst[:0], &empty, &emptyResp, nil)
	}); n != 0 {
		t.Fatalf("pooled parse scaffolding allocates %v per conversation, want 0", n)
	}
}

// TestExtractPairIntoAppends pins the Into contract: the destination is
// extended in place (no reallocation when capacity suffices) and prior
// contents survive.
func TestExtractPairIntoAppends(t *testing.T) {
	c2s, s2c := buildConv(simpleGet, simpleResp)
	dst := make([]Transaction, 0, 4)
	dst = ExtractPairInto(dst, c2s, s2c, nil)
	if len(dst) != 1 {
		t.Fatalf("first extract: %d transactions, want 1", len(dst))
	}
	first := dst[0]
	out := ExtractPairInto(dst, c2s, s2c, nil)
	if len(out) != 2 {
		t.Fatalf("second extract: %d transactions, want 2", len(out))
	}
	if &out[0] != &dst[0] {
		t.Fatal("ExtractPairInto reallocated a dst with sufficient capacity")
	}
	if out[0].Host != first.Host || out[1].Host != first.Host {
		t.Fatalf("appended transactions corrupted: %q, %q, want %q", out[0].Host, out[1].Host, first.Host)
	}
}

// TestPooledParserIsolation replays two different conversations through
// the pool back to back and checks nothing leaks between them: the second
// parse must see exactly its own messages even though it reuses the
// first's slices.
func TestPooledParserIsolation(t *testing.T) {
	mkReq := func(host string, n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString("GET /p HTTP/1.1\r\nHost: " + host + "\r\n\r\n")
		}
		return sb.String()
	}
	mkResp := func(n int) string {
		return strings.Repeat("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", n)
	}
	big, bigResp := buildConv(mkReq("big.example", 5), mkResp(5))
	small, smallResp := buildConv(mkReq("small.example", 2), mkResp(2))
	if got := ExtractPairInto(nil, big, bigResp, nil); len(got) != 5 {
		t.Fatalf("big conversation: %d transactions, want 5", len(got))
	}
	txs := ExtractPairInto(nil, small, smallResp, nil)
	if len(txs) != 2 {
		t.Fatalf("small conversation after big: %d transactions, want 2", len(txs))
	}
	for i, tx := range txs {
		if tx.Host != "small.example" {
			t.Fatalf("transaction %d has host %q leaked from a previous parse", i, tx.Host)
		}
		if tx.StatusCode != 200 {
			t.Fatalf("transaction %d lost its response: status %d", i, tx.StatusCode)
		}
	}
}

// BenchmarkExtractPairPooled tracks the per-conversation parse cost on a
// pipelined 8-message conversation (allocs/op is the number to watch: four
// per message head, one per kept body, none from the pooled scaffolding).
func BenchmarkExtractPairPooled(b *testing.B) {
	var reqs, resps strings.Builder
	for i := 0; i < 8; i++ {
		reqs.WriteString(simpleGet)
		resps.WriteString(simpleResp)
	}
	c2s, s2c := buildConv(reqs.String(), resps.String())
	dst := make([]Transaction, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ExtractPairInto(dst[:0], c2s, s2c, nil)
	}
	if len(dst) != 8 {
		b.Fatalf("extracted %d transactions, want 8", len(dst))
	}
	_ = pcap.Stream{}
}
