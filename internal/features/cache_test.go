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
// served as closed forms, and a fresh graph.Topology's recompute for the
// other topology slots (internal/graph holds that recompute to its plain
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
			simple[[2]int{int(e.From), int(e.To)}] = true
		}
	}
	reciprocated := 0
	for e := range simple {
		if simple[[2]int{e[1], e[0]}] {
			reciprocated++
		}
	}
	var top graph.Topology
	ts := top.Recompute(g, knnRadius, graph.NewScratch())

	v[6] = float64(n)
	v[7] = float64(m)
	v[8] = float64(maxDegree)
	if n >= 2 {
		v[9] = float64(len(simple)) / float64(n*(n-1))
	}
	v[10] = float64(2 * m)
	v[11] = float64(ts.Diameter)
	if n > 0 {
		v[12] = float64(m) / float64(n)
	}
	v[13] = v[12]
	if len(simple) > 0 {
		v[14] = float64(reciprocated) / float64(len(simple))
	}
	v[15], v[17], v[24] = closedForms(w)
	v[16] = ts.Closeness
	v[18] = v[17] // f19 is served as f18
	v[19] = float64(ts.Connectivity)
	v[20] = ts.Clustering
	v[21] = ts.NeighborDegree
	v[22] = ts.DegreeConnectivity
	v[23] = ts.WithinK

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
		u, v := int(min(e.From, e.To)), int(max(e.From, e.To))
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

// projection recounts the undirected simple projection of w from its
// edge list: each node's set of distinct neighbours, and the pair count.
func projection(w *wcg.WCG) (nbrs []map[int]bool, pairs int) {
	nbrs = make([]map[int]bool, len(w.Nodes))
	for i := range nbrs {
		nbrs[i] = map[int]bool{}
	}
	for _, e := range w.Edges {
		u, v := int(e.From), int(e.To)
		if u != v && !nbrs[u][v] {
			nbrs[u][v], nbrs[v][u] = true, true
			pairs++
		}
	}
	return nbrs, pairs
}

// changeTracker classifies each sync's change to the undirected simple
// projection from the WCG's edge list, independently of the cache: the
// first sync and anything but no change or one new leaf recompute.
type changeTracker struct {
	synced   bool
	n, pairs int
	attach   int // the existing node the last NewLeaf joined
}

func (ct *changeTracker) next(w *wcg.WCG) graph.Change {
	nbrs, pairs := projection(w)
	n, oldN, oldPairs, first := len(nbrs), ct.n, ct.pairs, !ct.synced
	ct.synced, ct.n, ct.pairs, ct.attach = true, n, pairs, -1
	switch {
	case first:
		return graph.Recomputed
	case n == oldN && pairs == oldPairs:
		return graph.Unchanged
	case n == oldN+1 && pairs == oldPairs+1 && len(nbrs[oldN]) == 1:
		for a := range nbrs[oldN] {
			ct.attach = a
		}
		return graph.NewLeaf
	}
	return graph.Recomputed
}

// TestCacheSkipsTopologyWhenStructUnchanged checks the cache's change
// classification against a recount from the edge list, sync by sync: no
// change to the undirected simple projection refreshes nothing, one new
// leaf takes the leaf update, anything else (the first sync included)
// recomputes, and TopologyRuns counts both kinds of refresh. On episodes
// that revisit a host, fewer syncs refresh than transactions arrive.
func TestCacheSkipsTopologyWhenStructUnchanged(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 13, Infections: 2, Benign: 2})
	for ei, ep := range episodes {
		txs := byTime(ep.Txs)
		ib := wcg.NewIncrementalBuilder()
		cache := NewCache(ib.Live(), nil)
		var ct changeTracker
		var refreshes uint64
		var kinds [3]int
		for i, tx := range txs {
			ib.Append(tx)
			cache.Features()
			want := ct.next(ib.Live())
			if got := cache.LastChange(); got != want {
				t.Fatalf("episode %d tx %d: sync classified %d, the edge list says %d", ei, i, got, want)
			}
			kinds[want]++
			if want != graph.Unchanged {
				refreshes++
			}
			if got := cache.TopologyRuns(); got != refreshes {
				t.Fatalf("episode %d tx %d: %d topology runs, %d refreshes", ei, i, got, refreshes)
			}
		}
		if kinds[graph.Unchanged] == 0 || kinds[graph.NewLeaf] == 0 {
			t.Fatalf("episode %d: syncs by kind %v; want skips and leaf updates", ei, kinds)
		}
		// Regardless of skips, the final vector matches from-scratch.
		requireSameVector(t, "final", cache.Features(), plainExtract(wcg.FromTransactions(txs)))
	}

	// A request that saw no response, then one to the same host that
	// did: the second's response is the first edge from the host back
	// to the client. It moves StructVersion (a new directed pair) but not
	// the undirected projection, so it refreshes nothing.
	txs := []httpstream.Transaction{
		callback("a.example", 200, 0), callback("b.example", 0, 1), callback("b.example", 200, 2),
	}
	ib := wcg.NewIncrementalBuilder()
	cache := NewCache(ib.Live(), nil)
	for i, want := range []graph.Change{graph.Recomputed, graph.NewLeaf, graph.Unchanged} {
		before := ib.Live().StructVersion()
		ib.Append(txs[i])
		cache.Features()
		if got := cache.LastChange(); got != want {
			t.Fatalf("reverse pair, tx %d: classified %d, want %d", i, got, want)
		}
		if i == 2 && ib.Live().StructVersion() == before {
			t.Fatal("the first response from b.example did not move StructVersion")
		}
	}
	if got := cache.TopologyRuns(); got != 2 {
		t.Fatalf("reverse pair: %d topology runs, want 2", got)
	}
	requireSameVector(t, "reverse pair", cache.Features(), plainExtract(wcg.FromTransactions(txs)))
}

// callback is one request from the client to host, sec seconds into the
// session, answered with status (0: no response seen).
func callback(host string, status, sec int) httpstream.Transaction {
	at := time.Date(2016, 3, 1, 9, 0, sec, 0, time.UTC)
	return httpstream.Transaction{
		ClientIP: netip.MustParseAddr("10.0.0.5"), ServerIP: netip.MustParseAddr("198.51.100.7"),
		Method: "POST", URI: "/gate.php", Host: host,
		ReqHdr: http.Header{}, RespHdr: http.Header{}, StatusCode: status,
		ReqTime: at, RespTime: at.Add(10 * time.Millisecond),
	}
}

// randomSession is one client's transactions half a second apart to
// hosts drawn at random, a third of them new: some unanswered, some
// redirected to a new or a known host, some with a Referer naming a known
// host (a redirect edge between two hosts when it clicks within the
// builder's gap).
func randomSession(rng *rand.Rand, n int) []httpstream.Transaction {
	var hosts []string
	pick := func() string {
		if len(hosts) == 0 || rng.Intn(3) == 0 {
			hosts = append(hosts, fmt.Sprintf("h%d.example", len(hosts)))
			return hosts[len(hosts)-1]
		}
		return hosts[rng.Intn(len(hosts))]
	}
	at := time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC)
	txs := make([]httpstream.Transaction, n)
	for i := range txs {
		req, resp := http.Header{}, http.Header{}
		if len(hosts) > 0 && rng.Intn(3) == 0 {
			req.Set("Referer", "http://"+hosts[rng.Intn(len(hosts))]+"/")
		}
		host := pick()
		status := []int{0, 200, 200, 302}[rng.Intn(4)]
		if status == 302 {
			resp.Set("Location", "http://"+pick()+"/")
		}
		txs[i] = httpstream.Transaction{
			ClientIP: netip.MustParseAddr("10.0.0.5"), ServerIP: netip.MustParseAddr("198.51.100.7"),
			Method: "GET", URI: fmt.Sprintf("/p%d", rng.Intn(4)), Host: host,
			ReqHdr: req, RespHdr: resp, StatusCode: status, ContentType: "text/html", BodySize: 64,
			ReqTime: at, RespTime: at.Add(10 * time.Millisecond),
		}
		at = at.Add(500 * time.Millisecond)
	}
	return txs
}

// TestCacheMatchesPlainExtractOnEveryChange grows random sessions' WCGs
// through every kind of change a WCG sees after its first sync — a
// call-back leaf on the client, a redirect target's leaf on another host,
// a first edge between two known nodes, two new nodes at once, a first
// reverse-direction edge, repeats — and holds the cache to the plain
// extractor on every prefix, bit for bit.
func TestCacheMatchesPlainExtractOnEveryChange(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	scratch := graph.NewScratch()
	var leafOnClient, leafElsewhere, pairOfKnown, other, reverseOnly int
	for session := 0; session < 30; session++ {
		txs := randomSession(rng, 50)
		ib := wcg.NewIncrementalBuilder()
		cache := NewCache(ib.Live(), scratch)
		var ct changeTracker
		var buf []float64
		for i, tx := range txs {
			n, ver := ib.Live().Order(), ib.Live().StructVersion()
			ib.Append(tx)
			buf = cache.FeaturesInto(buf)
			requireSameVector(t, fmt.Sprintf("session %d tx %d", session, i), buf, plainExtract(wcg.FromTransactions(txs[:i+1])))
			want := ct.next(ib.Live())
			if got := cache.LastChange(); got != want {
				t.Fatalf("session %d tx %d: classified %d, want %d", session, i, got, want)
			}
			switch {
			case i == 0:
			case want == graph.NewLeaf && ct.attach == 0:
				leafOnClient++
			case want == graph.NewLeaf:
				leafElsewhere++
			case want == graph.Recomputed && ib.Live().Order() == n:
				pairOfKnown++
			case want == graph.Recomputed:
				other++
			case ib.Live().StructVersion() != ver:
				reverseOnly++
			}
		}
	}
	for _, c := range []struct {
		name string
		n    int
	}{{"leaf on the client", leafOnClient}, {"leaf elsewhere", leafElsewhere}, {"pair of known nodes", pairOfKnown},
		{"other recompute", other}, {"reverse pair only", reverseOnly}} {
		if c.n == 0 {
			t.Fatalf("no %s in the random sessions", c.name)
		}
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
// edges and recomputes the topology slots, as any structural change but a
// new leaf does (BenchmarkTopologyLeafDelta4097 is the leaf's cost).
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

// starGrowth is one client calling back to the given number of new
// hosts, a second apart: the star of BenchmarkTopologyStar4097, one leaf
// per transaction.
func starGrowth(hosts int) []httpstream.Transaction {
	txs := make([]httpstream.Transaction, hosts)
	for h := range txs {
		txs[h] = callback(fmt.Sprintf("host%d.example", h), 200, h)
	}
	return txs
}

// BenchmarkTopologyLeafDelta4097 grows that star leaf by leaf to 4 097
// nodes through one cache, one FeaturesInto per new host: the watched
// client's loop, in which every sync after the first is a leaf update.
// ns/leaf is the mean over the 4 096 leaves, each transaction's append
// included.
func BenchmarkTopologyLeafDelta4097(b *testing.B) {
	txs := starGrowth(4096)
	scratch := graph.NewScratch()
	var v []float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ib := wcg.NewIncrementalBuilder()
		cache := NewCache(ib.Live(), scratch)
		for _, tx := range txs {
			ib.Append(tx)
			v = cache.FeaturesInto(v)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(txs)), "ns/leaf")
}

// TestCacheLeafGrowthAllocs pins the amortised growth of the leaf update:
// growing the star to 4 097 nodes through one cache, one sync per new
// host, allocates O(log n) times inside the syncs in all, because the
// kept per-node state and the scratch's buffers grow by doubling.
func TestCacheLeafGrowthAllocs(t *testing.T) {
	txs := starGrowth(4096)
	ib := wcg.NewIncrementalBuilder()
	cache := NewCache(ib.Live(), nil)
	var buf []float64
	var total uint64
	var before, after runtime.MemStats
	for i, tx := range txs {
		ib.Append(tx)
		runtime.ReadMemStats(&before)
		buf = cache.FeaturesInto(buf)
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
		if i > 0 && cache.LastChange() != graph.NewLeaf {
			t.Fatalf("host %d: classified %d, want a leaf update", i, cache.LastChange())
		}
	}
	if n := ib.Live().Order(); n != 4097 {
		t.Fatalf("star has %d nodes, want 4097", n)
	}
	t.Logf("%d allocations over 4 096 syncs", total)
	if total > 64 {
		t.Fatalf("growing a star to 4 097 nodes: the syncs allocated %d times, want at most 64", total)
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
