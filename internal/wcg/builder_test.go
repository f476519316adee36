package wcg

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
)

// TestBuilderMatchesBatch: feeding time-ordered transactions one at a time
// must produce the same graph and annotations as FromTransactions.
func TestBuilderMatchesBatch(t *testing.T) {
	txs := anglerEpisode()
	batch := FromTransactions(txs)

	b := NewBuilder()
	for _, tx := range txs {
		b.Add(tx)
	}
	inc := b.WCG()

	if inc.Order() != batch.Order() || inc.Size() != batch.Size() {
		t.Fatalf("incremental %d/%d vs batch %d/%d", inc.Order(), inc.Size(), batch.Order(), batch.Size())
	}
	if inc.OriginKnown != batch.OriginKnown || inc.OriginHost != batch.OriginHost {
		t.Fatal("origin metadata differs")
	}
	for i := range batch.Nodes {
		bh, ih := batch.Host(i), inc.Host(i)
		if bt, it := batch.Nodes[i].Type, inc.Nodes[i].Type; bh != ih || bt != it {
			t.Fatalf("node %d differs: %s/%s vs %s/%s", i, bh, bt, ih, it)
		}
	}
	for i := range batch.Edges {
		be, ie := batch.Edges[i], inc.Edges[i]
		if be.Kind != ie.Kind || be.From != ie.From || be.To != ie.To || be.Stage != ie.Stage {
			t.Fatalf("edge %d differs: %+v vs %+v", i, be, ie)
		}
	}
	if bs, is := batch.Summarize(), inc.Summarize(); !reflect.DeepEqual(bs, is) {
		t.Fatalf("summaries differ:\n%+v\n%+v", bs, is)
	}
}

// TestBuilderIntermediateSnapshots: WCG() may be called repeatedly while
// the graph grows, and each snapshot must be internally consistent.
func TestBuilderIntermediateSnapshots(t *testing.T) {
	txs := anglerEpisode()
	b := NewBuilder()
	prevEdges := 0
	for i, tx := range txs {
		b.Add(tx)
		w := b.WCG()
		if w.Size() < prevEdges {
			t.Fatalf("graph shrank at step %d", i)
		}
		prevEdges = w.Size()
		s := w.Summarize()
		if s.GETs+s.POSTs+s.OtherMethods != i+1 {
			t.Fatalf("step %d: %d requests recorded", i, s.GETs+s.POSTs+s.OtherMethods)
		}
	}
	// Final snapshot identical to batch.
	if got, want := b.WCG().Order(), FromTransactions(txs).Order(); got != want {
		t.Fatalf("final order %d != batch %d", got, want)
	}
}

// TestBuilderMatchesBatchProperty: random synthetic-ish transaction
// streams (time-ordered) agree between the two construction paths.
func TestBuilderMatchesBatchProperty(t *testing.T) {
	hosts := []string{"a.com", "b.net", "c.ru", "d.org"}
	ctypes := []string{"text/html", "application/x-msdownload", "image/png", "application/javascript"}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var txs []httpstream.Transaction
		at := time.Duration(0)
		n := 3 + rng.Intn(20)
		for i := 0; i < n; i++ {
			at += time.Duration(rng.Intn(2000)) * time.Millisecond
			tb := newTx(hosts[rng.Intn(len(hosts))], "/p"+string(rune('a'+rng.Intn(26))), at).
				ctype(ctypes[rng.Intn(len(ctypes))]).
				size(rng.Intn(10000))
			if rng.Float64() < 0.3 {
				tb.referer("http://" + hosts[rng.Intn(len(hosts))] + "/r")
			}
			if rng.Float64() < 0.2 {
				tb.status(302).location("http://" + hosts[rng.Intn(len(hosts))] + "/next")
			}
			if rng.Float64() < 0.15 {
				tb.method("POST")
			}
			txs = append(txs, tb.build())
		}
		batch := FromTransactions(txs)
		b := NewBuilder()
		for _, tx := range txs {
			b.Add(tx)
		}
		inc := b.WCG()
		if batch.Order() != inc.Order() || batch.Size() != inc.Size() {
			t.Fatalf("seed %d: %d/%d vs %d/%d", seed, batch.Order(), batch.Size(), inc.Order(), inc.Size())
		}
		bs, is := batch.Summarize(), inc.Summarize()
		if bs.Redirects != is.Redirects || bs.GETs != is.GETs || bs.HTTP30X != is.HTTP30X {
			t.Fatalf("seed %d: summaries differ", seed)
		}
	}
}

func TestBuilderEmpty(t *testing.T) {
	b := NewBuilder()
	w := b.WCG()
	if w.Order() != 0 || w.Size() != 0 {
		t.Fatal("empty builder must give empty WCG")
	}
	if b.Size() != 0 {
		t.Fatal("empty builder size wrong")
	}
}

// TestBuilderAllocsPerTransaction holds the watched-graph append to an
// allocation ceiling per transaction, on the episode the on-the-wire
// stage watches longest: a 3-hop 302 chain, an EXE, then 295 POST
// call-backs to 74 hosts (299 transactions). Edges and nodes stored by
// value leave only amortized slice and map growth; a heap edge or node
// per transaction, or a header lookup that allocates, breaks the ceiling.
func TestBuilderAllocsPerTransaction(t *testing.T) {
	txs := chainEpisode(295, 74)
	allocs := testing.AllocsPerRun(20, func() {
		ib := NewIncrementalBuilder()
		for i := range txs {
			ib.Append(txs[i])
		}
	})
	if perTx := allocs / float64(len(txs)); perTx > 2.5 {
		t.Fatalf("%.2f allocs per appended transaction over %d, want <= 2.5", perTx, len(txs))
	}
}
