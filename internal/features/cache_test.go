package features

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/netip"
	"runtime"
	"sort"
	"testing"
	"time"

	"dynaminer/internal/graph"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
	"dynaminer/internal/wcg"
)

// plainExtract is the from-scratch oracle of the cache: Summarize for the
// HLF, HF and TF slots, the degree, density, volume and reciprocity counts
// written out inline over the multigraph, closedForms for the three slots
// served as closed forms, and the graph kernels on a fresh scratch for the
// other topology slots (internal/graph holds those kernels to its plain
// oracle bit for bit, on these same synthetic WCGs). The cache must
// reproduce it bit for bit.
func plainExtract(w *wcg.WCG) []float64 {
	s := w.Summarize()
	g := w.Graph()
	n, m := g.N(), g.M()
	v := make([]float64, NumFeatures)

	v[0] = boolFeature(w.OriginKnown)
	v[1] = boolFeature(s.XFlashVersionSet)
	v[2] = float64(s.Size)
	v[3] = float64(s.UniqueHosts)
	v[4] = s.AvgURIsPerHost
	v[5] = s.AvgURILength

	maxDegree := 0
	simple := make(map[[2]int]bool) // distinct directed pairs, no self-loops
	for u := 0; u < n; u++ {
		maxDegree = max(maxDegree, g.Degree(u))
	}
	for _, e := range w.Edges {
		if e.From != e.To {
			simple[[2]int{e.From, e.To}] = true
		}
	}
	reciprocated := 0
	for e := range simple {
		if simple[[2]int{e[1], e[0]}] {
			reciprocated++
		}
	}
	sc := graph.NewScratch()
	ps := g.PathStatsS(knnRadius, sc)

	v[6] = float64(n)
	v[7] = float64(m)
	v[8] = float64(maxDegree)
	if n >= 2 {
		v[9] = float64(len(simple)) / float64(n*(n-1))
	}
	v[10] = float64(2 * m)
	v[11] = float64(ps.Diameter)
	if n > 0 {
		v[12] = float64(m) / float64(n)
	}
	v[13] = v[12]
	if len(simple) > 0 {
		v[14] = float64(reciprocated) / float64(len(simple))
	}
	v[15], v[17], v[24] = closedForms(w)
	v[16] = ps.Closeness
	v[18] = v[17] // f19 is served as f18
	v[19] = float64(g.NodeConnectivityS(sc))
	v[20] = g.AvgClusteringCoefficientS(sc)
	v[21] = g.AvgNeighborDegreeS(sc)
	v[22] = g.AvgDegreeConnectivityS(sc)
	v[23] = ps.WithinK

	v[25] = float64(s.GETs)
	v[26] = float64(s.POSTs)
	v[27] = float64(s.OtherMethods)
	v[28] = float64(s.HTTP10X)
	v[29] = float64(s.HTTP20X)
	v[30] = float64(s.HTTP30X)
	v[31] = float64(s.HTTP40X)
	v[32] = float64(s.HTTP50X)
	v[33] = float64(s.RefererSet)
	v[34] = float64(s.RefererEmpty)

	reqs := s.GETs + s.POSTs + s.OtherMethods
	if reqs > 0 {
		v[35] = s.Duration.Seconds() / float64(reqs)
	}
	v[36] = s.AvgInterTransact.Seconds()
	return v
}

// closedForms computes the three closed forms the extractor serves from
// the WCG's edge list alone, each an integer ratio rounded once: f16 mean
// degree centrality 2·pairs/(n(n−1)) over the distinct unordered host
// pairs, f18 (and f19) mean betweenness Σ(d−1)/(n(n−1)(n−2)) over ordered
// pairs joined by a path, by BFS over those pairs, and f25 mean PageRank
// 1/n. internal/graph holds each to the plain kernel it stands for within
// 1e-9 (TestTopologyIdentities).
func closedForms(w *wcg.WCG) (degree, betweenness, pageRank float64) {
	n := w.Graph().N()
	if n == 0 {
		return 0, 0, 0
	}
	pageRank = 1 / float64(n)
	adj := make([][]int, n)
	seen := make(map[[2]int]bool)
	for _, e := range w.Edges {
		u, v := min(e.From, e.To), max(e.From, e.To)
		if u != v && !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	if n >= 2 {
		degree = float64(2*len(seen)) / float64(n*(n-1))
	}
	excess := 0
	for src := range adj {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
			for _, v := range adj[queue[0]] {
				if dist[v] < 0 {
					dist[v] = dist[queue[0]] + 1
					excess += dist[v] - 1
					queue = append(queue, v)
				}
			}
		}
	}
	if n >= 3 {
		betweenness = float64(excess) / float64(n*(n-1)*(n-2))
	}
	return degree, betweenness, pageRank
}

func byTime(txs []httpstream.Transaction) []httpstream.Transaction {
	ordered := make([]httpstream.Transaction, len(txs))
	copy(ordered, txs)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].ReqTime.Before(ordered[j].ReqTime) })
	return ordered
}

func requireSameVector(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: feature %d (%s) = %v, want %v (bitwise)", ctx, i, Name(i), got[i], want[i])
		}
	}
}

// TestCacheMatchesPlainExtractIncrementally streams synthetic episodes
// through an incremental builder, syncing a single Cache after every
// append, and checks the cached vector is bit-identical to the plain
// extractor run from scratch on the same prefix: among the slots, f16,
// f18, f19 and f25 to their integer closed forms (closedForms).
func TestCacheMatchesPlainExtractIncrementally(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 29, Infections: 6, Benign: 5})
	scratch := graph.NewScratch()
	for ei, ep := range episodes {
		txs := byTime(ep.Txs)
		ib := wcg.NewIncrementalBuilder()
		cache := NewCache(ib.Live(), scratch)
		var buf []float64
		for i, tx := range txs {
			if !ib.Append(tx) {
				t.Fatalf("episode %d: in-order append %d rejected", ei, i)
			}
			buf = cache.FeaturesInto(buf)
			want := plainExtract(wcg.FromTransactions(txs[:i+1]))
			requireSameVector(t, ep.Family, buf, want)
		}
	}
}

// TestExtractMatchesPlainExtract pins that the refactored one-shot
// Extract reproduces the original extractor bit for bit on whole WCGs.
func TestExtractMatchesPlainExtract(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 41, Infections: 5, Benign: 5})
	for _, ep := range episodes {
		w := wcg.FromTransactions(ep.Txs)
		requireSameVector(t, ep.Family, Extract(w), plainExtract(w))
	}
}

// TestCacheSkipsTopologyWhenStructUnchanged checks the dirty tracking
// against the cache's own count: the topology slots are recomputed at
// exactly the syncs where StructVersion moved (the first included), which
// on any episode that revisits a host pair is fewer than its transactions.
func TestCacheSkipsTopologyWhenStructUnchanged(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 13, Infections: 2, Benign: 2})
	for ei, ep := range episodes {
		txs := byTime(ep.Txs)
		ib := wcg.NewIncrementalBuilder()
		cache := NewCache(ib.Live(), nil)
		var moves, lastVer uint64
		for i, tx := range txs {
			ib.Append(tx)
			cache.Features()
			if v := ib.Live().StructVersion(); i == 0 || v != lastVer {
				moves++
				lastVer = v
			}
			if got := cache.TopologyRuns(); got != moves {
				t.Fatalf("episode %d tx %d: %d topology runs, StructVersion moved %d times", ei, i, got, moves)
			}
		}
		if moves >= uint64(len(txs)) {
			t.Fatalf("episode %d: every one of %d transactions changed the structure; nothing to skip", ei, len(txs))
		}
		// Regardless of skips, the final vector matches from-scratch.
		requireSameVector(t, "final", cache.Features(), plainExtract(wcg.FromTransactions(txs)))
	}
}

// clientWCG is one client's requests to the given number of distinct
// hosts, a second apart. With rng set, about a third of them carry a
// Referer naming an earlier host; without, the WCG is a star.
func clientWCG(hosts int, rng *rand.Rand) *wcg.WCG {
	var txs []httpstream.Transaction
	at := time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC)
	for h := 0; h < hosts; h++ {
		hdr := http.Header{}
		if rng != nil && h > 0 && rng.Intn(3) == 0 {
			hdr.Set("Referer", fmt.Sprintf("http://host%d.example/", rng.Intn(h)))
		}
		txs = append(txs, httpstream.Transaction{
			ClientIP: netip.MustParseAddr("10.0.0.5"), ServerIP: netip.MustParseAddr("198.51.100.7"),
			Method: "GET", URI: "/", Host: fmt.Sprintf("host%d.example", h),
			ReqHdr: hdr, RespHdr: http.Header{}, StatusCode: 200,
			ReqTime: at, RespTime: at.Add(10 * time.Millisecond),
		})
		at = at.Add(time.Second)
	}
	return wcg.FromTransactions(txs)
}

// BenchmarkTopologyStar4097 is one FeaturesInto after a structural change
// on the worst-case shape of one watched client: 4 096 hosts on one
// victim. Reset voids the cache's cursor, so every sync re-folds the
// edges and recomputes the topology slots, as a new host does.
func BenchmarkTopologyStar4097(b *testing.B) {
	w := clientWCG(4096, nil)
	if w.Order() != 4097 {
		b.Fatalf("star WCG has %d nodes, want 4097", w.Order())
	}
	cache := NewCache(w, nil)
	v := cache.FeaturesInto(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Reset(w, nil)
		v = cache.FeaturesInto(v)
	}
}

// TestCacheTopologyRecomputeAllocs pins the zero-allocation contract of
// the expensive kind of sync: a warm cache re-deriving every topology slot
// of a 100-node WCG — past the size at which the sweep used to start
// goroutines — allocates nothing.
func TestCacheTopologyRecomputeAllocs(t *testing.T) {
	a, b := clientWCG(99, rand.New(rand.NewSource(1))), clientWCG(99, rand.New(rand.NewSource(2)))
	if a.Order() != 100 || b.Order() != 100 {
		t.Fatalf("fixture WCGs have %d and %d nodes, want 100", a.Order(), b.Order())
	}
	cache := NewCache(a, nil)
	var buf []float64
	run := func() {
		for _, w := range []*wcg.WCG{a, b} {
			// Reset voids the cursor, so the sync that follows is a
			// structural change as far as the cache can tell.
			cache.Reset(w, nil)
			buf = cache.FeaturesInto(buf)
			if cache.TopologyRuns() != 1 {
				panic("the sync after a Reset did not recompute the topology")
			}
		}
	}
	run() // warm the cache buffer, the scratch and both graphs
	// Counted by hand rather than by testing.AllocsPerRun, which pins
	// GOMAXPROCS to 1 — the setting under which a worker fan-out stays
	// off and its goroutines and closures would go uncounted. The runtime
	// may allocate on its own behind one round; it will not behind five.
	least := ^uint64(0)
	var before, after runtime.MemStats
	for round := 0; round < 5 && least > 0; round++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Fatalf("warm topology recompute at 100 nodes allocates at least %d times per pair, want 0", least)
	}
}

// TestCacheEmptyWCG pins the all-zero vector on an empty graph, through
// both the cache and the one-shot Extract.
func TestCacheEmptyWCG(t *testing.T) {
	w := wcg.FromTransactions(nil)
	for i, v := range NewCache(w, nil).Features() {
		if v != 0 {
			t.Fatalf("feature %d (%s) = %v on empty WCG", i, Name(i), v)
		}
	}
}
