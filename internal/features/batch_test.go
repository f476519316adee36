package features

import (
	"testing"
	"unsafe"

	"dynaminer/internal/graph"
	"dynaminer/internal/synth"
	"dynaminer/internal/wcg"
)

func batchWCGs(seed int64) []*wcg.WCG {
	episodes := synth.GenerateCorpus(synth.Config{Seed: seed, Infections: 6, Benign: 6})
	ws := make([]*wcg.WCG, len(episodes))
	for i := range episodes {
		ws[i] = wcg.FromTransactions(episodes[i].Txs)
	}
	return ws
}

// TestExtractBatchMatchesExtract pins that the batched slab path is
// bit-identical to per-episode Extract on every vector.
func TestExtractBatchMatchesExtract(t *testing.T) {
	ws := batchWCGs(53)
	got := ExtractBatch(ws)
	if len(got) != len(ws) {
		t.Fatalf("vectors = %d, want %d", len(got), len(ws))
	}
	for i, w := range ws {
		requireSameVector(t, "batch", got[i], Extract(w))
	}
}

// TestExtractBatchSlabLayout pins the caller contract: vectors are
// stride-NumFeatures views over one contiguous backing array.
func TestExtractBatchSlabLayout(t *testing.T) {
	ws := batchWCGs(59)
	views := ExtractBatch(ws)
	base := unsafe.Pointer(&views[0][0])
	for i, v := range views {
		if len(v) != NumFeatures {
			t.Fatalf("vector %d len = %d", i, len(v))
		}
		if unsafe.Pointer(&v[0]) != unsafe.Add(base, i*NumFeatures*int(unsafe.Sizeof(v[0]))) {
			t.Fatalf("vector %d is not a view over the slab", i)
		}
	}
}

// TestExtractBatchEmpty covers the zero-episode edge.
func TestExtractBatchEmpty(t *testing.T) {
	if got := ExtractBatch(nil); len(got) != 0 {
		t.Fatalf("ExtractBatch(nil) = %d vectors", len(got))
	}
}

// TestCacheResetMatchesFreshCache pins that Reset is equivalent to a
// brand-new cache for every WCG it is pointed at, in any order.
func TestCacheResetMatchesFreshCache(t *testing.T) {
	ws := batchWCGs(61)
	var c Cache
	var buf []float64
	for pass := 0; pass < 2; pass++ {
		for i := len(ws) - 1; i >= 0; i-- { // reverse order: no hidden cursor reuse
			c.Reset(ws[i], nil)
			buf = c.FeaturesInto(buf)
			requireSameVector(t, "reset", buf, Extract(ws[i]))
		}
	}
}

// TestExtractBatchAllocs pins the steady-state zero-alloc contract of
// ExtractBatch's loop: once the slab, the cache buffer and the scratch
// arenas are warm (and each WCG has materialized its graph), Reset +
// FeaturesInto re-featurizes a whole batch without allocating.
func TestExtractBatchAllocs(t *testing.T) {
	ws := batchWCGs(67)
	slab := make([]float64, len(ws)*NumFeatures)
	scratch := graph.NewScratch()
	var cache Cache
	run := func() {
		for i, w := range ws {
			cache.Reset(w, scratch)
			cache.FeaturesInto(slab[i*NumFeatures : (i+1)*NumFeatures : (i+1)*NumFeatures])
		}
	}
	run() // warm the cache buffer, scratch, and per-WCG graph materialization
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("batched extraction allocates %.1f times per batch in steady state, want 0", allocs)
	}
}
