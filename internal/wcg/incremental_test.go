package wcg

import (
	"bytes"
	"net/netip"
	"sort"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
)

// jsonBytes is the byte-identity comparison vehicle: two WCGs are "the
// same" when their full wire serializations match.
func jsonBytes(t *testing.T, w *WCG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sortedByReqTime(txs []httpstream.Transaction) []httpstream.Transaction {
	ordered := make([]httpstream.Transaction, len(txs))
	copy(ordered, txs)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].ReqTime.Before(ordered[j].ReqTime) })
	return ordered
}

// TestIncrementalMatchesBatch streams synthetic episodes through the
// incremental builder and checks that at every prefix the finalized WCG is
// byte-identical to FromTransactions over the same transactions, and that
// the O(1) structural counters agree with the full graph recomputation.
func TestIncrementalMatchesBatch(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 11, Infections: 8, Benign: 6})
	for ei, ep := range episodes {
		txs := sortedByReqTime(ep.Txs)
		ib := NewIncrementalBuilder()
		for i, tx := range txs {
			if !ib.Append(tx) {
				t.Fatalf("episode %d (%s): in-order append %d rejected", ei, ep.Family, i)
			}
			// Byte-compare every prefix on small episodes, and the final
			// graph always; full quadratic comparison on long chains adds
			// minutes without adding coverage.
			if len(txs) <= 30 || i == len(txs)-1 {
				got := jsonBytes(t, ib.Finalize())
				want := jsonBytes(t, FromTransactions(txs[:i+1]))
				if !bytes.Equal(got, want) {
					t.Fatalf("episode %d (%s): prefix %d diverged\nincremental: %s\nbatch:       %s",
						ei, ep.Family, i+1, got, want)
				}
			}
		}
		// The maintained counters must match a from-scratch count of the
		// distinct directed host pairs (self-loops excluded) and of those
		// whose reverse pair also exists.
		w := ib.Live()
		simple := make(map[[2]int]bool)
		for _, e := range w.Edges {
			if e.From != e.To {
				simple[[2]int{int(e.From), int(e.To)}] = true
			}
		}
		wantRecip := 0
		for e := range simple {
			if simple[[2]int{e[1], e[0]}] {
				wantRecip++
			}
		}
		if pairs, recip := w.SimpleEdgeStats(); pairs != len(simple) || recip != wantRecip {
			t.Fatalf("episode %d: counters give %d pairs (%d reciprocated), recount gives %d (%d)",
				ei, pairs, recip, len(simple), wantRecip)
		}
		hosts, uris := w.HostURIStats()
		s := w.Summarize()
		if hosts != s.UniqueHosts {
			t.Fatalf("episode %d: uniqueHosts counter %d != %d", ei, hosts, s.UniqueHosts)
		}
		wantURIs := 0
		for _, n := range w.Nodes {
			if n.Type != NodeOrigin {
				wantURIs += n.URIs
			}
		}
		if uris != wantURIs {
			t.Fatalf("episode %d: uriTotal counter %d != %d", ei, uris, wantURIs)
		}
	}
}

// TestStructVersionStaysPutOnParallelEdges pins the dirty-tracking
// contract: re-requesting a known URI pair adds parallel edges without
// moving StructVersion, while a fresh host moves it.
func TestStructVersionStaysPutOnParallelEdges(t *testing.T) {
	base := time.Date(2014, 3, 1, 10, 0, 0, 0, time.UTC)
	tx := func(host, uri string, at time.Time) httpstream.Transaction {
		return httpstream.Transaction{
			ClientIP: netip.MustParseAddr("10.0.0.5"), ServerIP: netip.MustParseAddr("93.184.216.34"),
			Host: host, URI: uri, Method: "GET", StatusCode: 200,
			ReqTime: at, RespTime: at.Add(30 * time.Millisecond),
			ContentType: "text/html", BodySize: 900,
		}
	}
	ib := NewIncrementalBuilder()
	ib.Append(tx("a.example.com", "/", base))
	v1 := ib.Live().StructVersion()
	ib.Append(tx("a.example.com", "/again", base.Add(time.Second)))
	if v2 := ib.Live().StructVersion(); v2 != v1 {
		t.Fatalf("parallel request/response edges moved StructVersion %d -> %d", v1, v2)
	}
	ib.Append(tx("b.example.com", "/", base.Add(2*time.Second)))
	if v3 := ib.Live().StructVersion(); v3 == v1 {
		t.Fatal("new host did not move StructVersion")
	}
}

// TestStructVersionIdentity pins the value the journal records as
// wcg_struct_version: after every append, StructVersion is the node count
// plus the number of distinct directed host pairs (self-loops excluded),
// counted here off the WCG's own edge list.
func TestStructVersionIdentity(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 1, Infections: 100, Benign: 100})
	for ei, ep := range episodes {
		ib := NewIncrementalBuilder()
		pairs := make(map[[2]int]bool)
		seen := 0
		for i, tx := range sortedByReqTime(ep.Txs) {
			if !ib.Append(tx) {
				t.Fatalf("episode %d: in-order append %d rejected", ei, i)
			}
			w := ib.Live()
			for _, e := range w.Edges[seen:] {
				if e.From != e.To {
					pairs[[2]int{int(e.From), int(e.To)}] = true
				}
			}
			seen = len(w.Edges)
			if got, want := w.StructVersion(), uint64(len(w.Nodes)+len(pairs)); got != want {
				t.Fatalf("episode %d tx %d: StructVersion %d, want %d nodes + %d pairs = %d",
					ei, i, got, len(w.Nodes), len(pairs), want)
			}
		}
	}
}

// TestAppendRejectsOutOfOrder checks the rejection happens before any
// mutation: the WCG serialization is unchanged after the refused append.
func TestAppendRejectsOutOfOrder(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 3, Infections: 1, Benign: 0})
	txs := sortedByReqTime(episodes[0].Txs)
	if len(txs) < 3 {
		t.Skip("episode too short")
	}
	ib := NewIncrementalBuilder()
	for _, tx := range txs[1:] {
		if !ib.Append(tx) {
			t.Fatal("in-order append rejected")
		}
	}
	before := jsonBytes(t, ib.Live())
	stale := txs[0] // strictly earlier than everything already appended
	if ib.Append(stale) {
		t.Fatal("out-of-order append accepted")
	}
	after := jsonBytes(t, ib.Live())
	if !bytes.Equal(before, after) {
		t.Fatal("refused append mutated the WCG")
	}
}
