package graph

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randomGraph builds a seeded random multigraph with parallel edges and
// self-loops, the shapes the scratch projections must collapse exactly like
// the map-based originals.
func randomMultigraph(rng *rand.Rand, n, edges int) *Digraph {
	g := New(n)
	for i := 0; i < edges; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if rng.Intn(10) == 0 {
			v = u // occasional self-loop
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g
}

// sameScalar asserts bitwise equality — the scratch variants promise the
// identical arithmetic in the identical order, not just approximation.
func sameScalar(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v != %v", name, got, want)
	}
}

// CheckScratchMatches holds a Topology recomputed on g by the Scratch
// kernels to the plain oracle (plainTopology) bit for bit, at every
// within-k radius the kernels are tested at, reusing s across calls, and
// the integer closed form of mean betweenness to plain Brandes
// betweenness within topologyTol. It is exported for the external
// differential over synthetic WCGs (synth_wcg_test.go).
func CheckScratchMatches(t *testing.T, g *Digraph, s *Scratch) {
	t.Helper()
	want := plainTopology(g, 0)
	nearForm(t, g, "mean Brandes betweenness", Mean(g.BetweennessCentrality()), want.Betweenness)
	var top Topology
	for _, k := range []int{0, 1, 2, 3} {
		want.WithinK = g.AvgNodesWithinK(k)
		sameTopology(t, "recompute", g, k, top.Recompute(g, k, s), want)
	}
}

func TestScratchMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewScratch()
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		g := randomMultigraph(rng, n, rng.Intn(4*n))
		CheckScratchMatches(t, g, s)
	}
}

// completeBipartite returns K(a,b) with every edge directed left to right.
func completeBipartite(a, b int) *Digraph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// chainClientGraph is the shape a watched infection grows into on the
// wire: a victim hub talking both ways to every host, a redirect chain
// through the first four hosts, and call-back hosts as leaves.
func chainClientGraph(n int) *Digraph {
	g := New(n)
	for v := 1; v < n; v++ {
		_ = g.AddEdge(0, v) // request
		_ = g.AddEdge(v, 0) // response
	}
	for v := 1; v < 4 && v+1 < n; v++ {
		_ = g.AddEdge(v, v+1) // redirect
	}
	return g
}

// TestPathStatsMatchesPlain is the standing differential behind the fused
// sweep: every slot of a recompute bit for bit against the plain oracle
// on random multigraphs with self-loops, parallel edges and several
// components, on the regular families, on the watched chain-client shape
// at every size it passes through, and with one Scratch carried from
// large graphs to small ones so stale buffer contents show.
func TestPathStatsMatchesPlain(t *testing.T) {
	s := NewScratch()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(80)
		g := randomMultigraph(rng, n, rng.Intn(3*n))
		CheckScratchMatches(t, g, s)
	}
	for n := 0; n <= 12; n++ {
		CheckScratchMatches(t, New(n), s) // edgeless
		CheckScratchMatches(t, pathGraph(n), s)
		CheckScratchMatches(t, starGraph(n), s)
		CheckScratchMatches(t, completeGraph(n), s)
		if n > 0 {
			CheckScratchMatches(t, cycleGraph(n), s)
		}
		for a := 1; a <= 4; a++ {
			CheckScratchMatches(t, completeBipartite(a, n), s)
		}
	}
	for n := 5; n <= 79; n++ {
		CheckScratchMatches(t, chainClientGraph(n), s)
	}
	CheckScratchMatches(t, benchGraph(200), s)
	for n := 80; n >= 1; n -= 3 { // shrinking: every buffer is longer than n
		CheckScratchMatches(t, randomMultigraph(rng, n, 2*n), s)
	}
	// The shapes the sweep folds into its hub's BFS.
	for n := 3; n <= 80; n++ {
		CheckScratchMatches(t, starGraph(n-1), s)
	}
	for trial := 0; trial < 300; trial++ {
		CheckScratchMatches(t, leafyGraph(rng, 1+rng.Intn(20), 1+rng.Intn(40)), s)
		CheckScratchMatches(t, tiedHubsGraph(rng, 1+rng.Intn(12), rng.Intn(4)), s)
		CheckScratchMatches(t, starBesideK2s(rng, 1+rng.Intn(30), 1+rng.Intn(5)), s)
		CheckScratchMatches(t, degreeTwoHubGraph(rng, 2+rng.Intn(20)), s)
	}
}

// relabel returns g with node u renamed perm[u], so a family's hub and
// leaves land at ids on every side of each other.
func relabel(g *Digraph, perm []int) *Digraph {
	h := New(g.N())
	for u, vs := range g.outLists() {
		for _, v := range vs {
			_ = h.AddEdge(perm[u], perm[v])
		}
	}
	return h
}

// leafyGraph is a random core of c nodes whose node 0 also carries the
// given number of leaves (some wired both ways, as a request and its
// response), relabelled at random so the leaves' ids lie on both sides
// of the hub's.
func leafyGraph(rng *rand.Rand, c, leaves int) *Digraph {
	g := randomMultigraph(rng, c, rng.Intn(3*c))
	for i := 0; i < leaves; i++ {
		v := g.AddNode()
		_ = g.AddEdge(0, v)
		if rng.Intn(2) == 0 {
			_ = g.AddEdge(v, 0)
		}
	}
	return relabel(g, rng.Perm(g.N()))
}

// tiedHubsGraph is two hubs with the same number of leaves, joined by a
// path of gap extra nodes (gap 0: adjacent hubs), relabelled at random so
// either hub may hold the lower id.
func tiedHubsGraph(rng *rand.Rand, leaves, gap int) *Digraph {
	g := New(2)
	prev := 0
	for i := 0; i < gap; i++ {
		v := g.AddNode()
		_ = g.AddEdge(prev, v)
		prev = v
	}
	_ = g.AddEdge(prev, 1)
	for _, h := range []int{0, 1} {
		for i := 0; i < leaves; i++ {
			_ = g.AddEdge(h, g.AddNode())
		}
	}
	return relabel(g, rng.Perm(g.N()))
}

// starBesideK2s is a star beside k2 separate edges, whose endpoints have
// degree 1 but no hub.
func starBesideK2s(rng *rand.Rand, leaves, k2 int) *Digraph {
	g := starGraph(leaves)
	for i := 0; i < k2; i++ {
		_ = g.AddEdge(g.AddNode(), g.AddNode())
	}
	return relabel(g, rng.Perm(g.N()))
}

// degreeTwoHubGraph hangs one leaf off a node whose only other neighbour
// is a random core (or two leaves off a lone node: the path P3).
func degreeTwoHubGraph(rng *rand.Rand, c int) *Digraph {
	if rng.Intn(4) == 0 {
		return relabel(pathGraph(3), rng.Perm(3))
	}
	g := randomMultigraph(rng, c, 2*c)
	h := g.AddNode()
	_ = g.AddEdge(rng.Intn(c), h)
	_ = g.AddEdge(h, g.AddNode())
	return relabel(g, rng.Perm(g.N()))
}

// TestPathStatsFoldsLeaves pins the sweep's work, not its time: the
// victim's leaves reuse the victim's BFS, so a watched chain client runs
// one BFS per non-leaf node and a star runs exactly one.
func TestPathStatsFoldsLeaves(t *testing.T) {
	s := NewScratch()
	runs := func(g *Digraph) int {
		top := Topology{nodes: make([]nodeStat, g.N())}
		before := s.bfsRuns
		g.pathStats(2, s, &top)
		return s.bfsRuns - before
	}
	for n := 6; n <= 79; n++ {
		// Nodes 1-4 carry the redirect chain; 5..n-1 are the victim's leaves.
		if got, want := runs(chainClientGraph(n)), n-(n-5); got != want {
			t.Fatalf("chainClientGraph(%d): %d BFS runs, want %d", n, got, want)
		}
	}
	if got := runs(starGraph(4096)); got != 1 {
		t.Fatalf("4097-node star: %d BFS runs, want 1", got)
	}
	// Nodes 1 and 3 tie on one leaf each; only the lower id's leaf folds.
	if got := runs(pathGraph(5)); got != 4 {
		t.Fatalf("path of 5: %d BFS runs, want 4", got)
	}
}

// fuzzGraph decodes bytes as a node count (1-64) and an edge list.
func fuzzGraph(data []byte) *Digraph {
	if len(data) == 0 {
		return New(0)
	}
	n := 1 + int(data[0])%64
	g := New(n)
	for i := 1; i+1 < len(data); i += 2 {
		_ = g.AddEdge(int(data[i])%n, int(data[i+1])%n)
	}
	return g
}

// fuzzEdit applies the edit two bytes encode to g: an edge between ids
// taken modulo n+2, where id n (and n+1) name new nodes added first. It
// covers a leaf on any node, a first edge, a reverse or parallel edge or
// a self-loop between existing nodes, and a new component.
func fuzzEdit(g *Digraph, x, y byte) {
	n := g.N()
	u, v := int(x)%(n+2), int(y)%(n+2)
	for g.N() <= max(u, v) {
		g.AddNode()
	}
	_ = g.AddEdge(u, v)
}

// FuzzPathStats runs the same differential, Topology.Recompute against
// the plain oracle, on graphs an input chooses: the host graph of a
// watched client is drawn by whoever the client talks to, which makes
// these kernels attacker-shaped input on the wire path. With the top bit
// of the first byte set, the input is a graph, then one edit (its last
// two bytes, fuzzEdit): a Topology recomputed on the graph and updated
// through the edit must serve what the plain oracle computes on the
// edited graph, bit for bit.
func FuzzPathStats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 1, 2})                         // path
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 0, 4, 4, 0})       // star with a reply
	f.Add([]byte{5, 0, 0, 1, 1, 2, 3, 2, 3, 3, 2})       // self-loops, parallel edges, two components
	f.Add([]byte{3, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2})       // cycle with a chord
	f.Add([]byte{0x84, 0, 1, 0, 2, 0, 3, 0, 5})          // star, then a leaf on its hub
	f.Add([]byte{0x84, 0, 1, 0, 2, 2, 3, 3, 5})          // path, then a leaf on its end
	f.Add([]byte{0x82, 0, 1, 1, 2, 1, 0})                // path, then a first reverse edge
	f.Add([]byte{0x83, 0, 1, 1, 2, 0, 2})                // path, then a chord
	f.Add([]byte{0x82, 0, 1, 1, 2, 3, 4})                // path, then a new component
	f.Add([]byte{0x85, 0, 1, 0, 2, 3, 4, 0, 6, 7, 7, 7}) // two components, then a new node on a self-loop
	s := NewScratch()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip()
		}
		var edit []byte
		if len(data) >= 3 && data[0]&0x80 != 0 {
			data, edit = data[:len(data)-2], data[len(data)-2:]
		}
		g := fuzzGraph(data)
		newProjectionTracker().replay(t, g)
		CheckScratchMatches(t, g, s)
		if edit != nil {
			var top Topology
			before := top.Recompute(g, 2, s)
			fuzzEdit(g, edit[0], edit[1])
			st, change := top.Update(g, s)
			if change == Unchanged {
				st = before
			}
			checkTopology(t, "graph, then one edit", g, 2, st)
		}
	})
}

// TestScratchInvalidation mutates the graph between calls and checks the
// cached projection is rebuilt, including across distinct graphs sharing
// one scratch.
func TestScratchInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewScratch()
	g := randomMultigraph(rng, 10, 20)
	CheckScratchMatches(t, g, s)
	for i := 0; i < 15; i++ {
		if rng.Intn(4) == 0 {
			g.AddNode()
		} else {
			n := g.N()
			if err := g.AddEdge(rng.Intn(n), rng.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
		CheckScratchMatches(t, g, s)
	}
	// Switch to a different graph mid-stream.
	h := randomMultigraph(rng, 25, 70)
	CheckScratchMatches(t, h, s)
	CheckScratchMatches(t, g, s)
}

// TestScratchTinyGraphs runs the graphs of 0, 1 and 2 nodes through
// Topology.Recompute: no slot is NaN (fold divides by n, so the empty
// graph must not reach it), an edgeless graph's slots are all zero, and
// every slot matches the oracle.
func TestScratchTinyGraphs(t *testing.T) {
	s := NewScratch()
	edge := New(2)
	if err := edge.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Digraph{New(0), New(1), New(2), edge} {
		var top Topology
		st := top.Recompute(g, 2, s)
		for _, v := range []float64{st.WithinK, st.Closeness, st.Betweenness, st.Clustering, st.NeighborDegree, st.DegreeConnectivity} {
			if math.IsNaN(v) {
				t.Fatalf("%d nodes, %d edges: a NaN slot in %+v", g.N(), g.M(), st)
			}
		}
		if g.M() == 0 && st != (TopologyStats{}) {
			t.Fatalf("%d edgeless nodes: %+v, want all-zero slots", g.N(), st)
		}
		CheckScratchMatches(t, g, s)
	}
}

// TestScratchSteadyStateAllocs pins the zero-allocation contract for the
// analytics passes once the workspace has warmed up on a graph of the same
// size — at 100 nodes, where the sweep used to fan out over goroutines,
// and on the chain client and the 4 097-node star, whose leaves the sweep
// folds into their hub's BFS.
func TestScratchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomMultigraph(rng, 100, 330)
	h := randomMultigraph(rng, 100, 350)
	chain, star := chainClientGraph(79), starGraph(4096)
	s := NewScratch()
	var top Topology
	all := func(g *Digraph) { top.Recompute(g, 2, s) }
	for _, x := range []*Digraph{g, h, chain, star} {
		all(x) // warm up every buffer
	}
	allocs := testing.AllocsPerRun(20, func() {
		// Alternating graphs lays both projections out again from each
		// graph's pair sets on every call, with no fresh allocations.
		all(g)
		all(h)
		all(chain)
		all(star)
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state analytics allocated %.1f objects/run, want 0", allocs)
	}
}

// TestScratchGrowthAllocs pins the amortised growth of the workspace: a
// star grown one leaf at a time to 4 097 nodes, with a topology recompute
// on one kept Topology after each new leaf, makes at most 100
// allocations inside the recomputes over all 4 096 steps. Buffers
// resized to exactly n made several on every step.
func TestScratchGrowthAllocs(t *testing.T) {
	g, s := New(1), NewScratch()
	var top Topology
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < 4096; i++ {
		if err := g.AddEdge(0, g.AddNode()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		top.Recompute(g, 2, s)
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	t.Logf("%d allocations over 4 096 steps", total)
	if total > 100 {
		t.Fatalf("growing a star to %d nodes: the kernels allocated %d times, want at most 100", g.N(), total)
	}
}

// topologyTol is the relative tolerance between a served closed form and
// the plain kernel it stands for: each kernel's mean is a sum of at most a
// few thousand rounded terms of one sign.
const topologyTol = 1e-9

// nearForm fails unless got lies within topologyTol of the closed form
// want, relative to it (so a zero form admits only zero).
func nearForm(t *testing.T, g *Digraph, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > topologyTol*math.Abs(want) {
		t.Fatalf("n=%d %s: %v, closed form %v (rel. err %.3g)", g.N(), name, got, want, math.Abs(got-want)/math.Abs(want))
	}
}

// meanBetweennessForm is the integer closed form of mean betweenness,
// computed from the oracle's own BFS: Σ(d − 1) over ordered pairs of
// distinct nodes joined by a path, over n(n−1)(n−2), rounded once.
func meanBetweennessForm(g *Digraph) float64 {
	n := g.N()
	if n < 3 {
		return 0
	}
	adj := g.undirectedSimple()
	excess := 0
	for u := range adj {
		for _, d := range bfsDistances(adj, u) {
			if d > 0 {
				excess += d - 1
			}
		}
	}
	return float64(excess) / float64(n*(n-1)*(n-2))
}

// CheckTopologyIdentities holds the closed forms the feature extractor
// serves for three Table II slots to the plain kernels that define them
// (plain_ref_test.go), within topologyTol: f25 mean PageRank is 1/n, f16
// mean degree centrality is 2·pairs/(n(n−1)) over the undirected simple
// pairs, and f18 (and f19) mean betweenness is the sweep's integer ratio.
func CheckTopologyIdentities(t *testing.T, g *Digraph, s *Scratch) {
	t.Helper()
	n := g.N()
	if n == 0 {
		return
	}
	nearForm(t, g, "mean PageRank", Mean(g.PageRank(0.85, 100, 1e-10)), 1/float64(n))
	if n < 2 {
		return
	}
	pairs := 0
	for _, vs := range g.undirectedSimple() {
		pairs += len(vs)
	}
	if pairs /= 2; pairs != g.UndirectedM() {
		t.Fatalf("UndirectedM = %d, the oracle projection has %d pairs", g.UndirectedM(), pairs)
	}
	nearForm(t, g, "mean degree centrality", Mean(g.DegreeCentrality()), float64(2*pairs)/float64(n*(n-1)))
	var top Topology
	nearForm(t, g, "mean betweenness", Mean(g.BetweennessCentrality()), top.Recompute(g, 2, s).Betweenness)
}
