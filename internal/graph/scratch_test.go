package graph

import (
	"math"
	"math/rand"
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

// sameFloats asserts bitwise equality — the scratch variants promise the
// identical arithmetic in the identical order, not just approximation.
func sameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v (bits %x) != %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameScalar(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v != %v", name, got, want)
	}
}

// checkPathStats holds the one shortest-path sweep and the bounded
// connectivity to the oracle kernels in plain_ref_test.go.
func checkPathStats(t *testing.T, g *Digraph, s *Scratch) {
	t.Helper()
	diameter := g.Diameter()
	closeness := Mean(g.ClosenessCentrality())
	betweenness := Mean(g.BetweennessCentrality())
	for _, k := range []int{2, 1} {
		ps := g.PathStatsS(k, s)
		if ps.Diameter != diameter {
			t.Fatalf("PathStatsS.Diameter = %d, want %d", ps.Diameter, diameter)
		}
		sameScalar(t, "WithinK", ps.WithinK, g.AvgNodesWithinK(k))
		sameScalar(t, "Closeness", ps.Closeness, closeness)
		sameScalar(t, "Betweenness", ps.Betweenness, betweenness)
	}
	if got, want := g.NodeConnectivityS(s), g.NodeConnectivity(); got != want {
		t.Fatalf("NodeConnectivityS = %d, want %d", got, want)
	}
}

// CheckScratchMatches runs every Scratch kernel against its oracle on g,
// reusing s across calls. It is exported for the external differential
// over synthetic WCGs (synth_wcg_test.go).
func CheckScratchMatches(t *testing.T, g *Digraph, s *Scratch) {
	t.Helper()
	checkPathStats(t, g, s)
	sameFloats(t, "DegreeCentrality", g.DegreeCentralityInto(nil, s), g.DegreeCentrality())
	sameScalar(t, "AvgClusteringCoefficient", g.AvgClusteringCoefficientS(s), g.AvgClusteringCoefficient())
	sameFloats(t, "AvgNeighborDegrees", g.AvgNeighborDegreesInto(nil, s), g.AvgNeighborDegrees())
	sameScalar(t, "AvgDegreeConnectivity", g.AvgDegreeConnectivityS(s), g.AvgDegreeConnectivity())
	sameFloats(t, "PageRank", g.PageRankInto(nil, s, 0.85, 100, 1e-10), g.PageRank(0.85, 100, 1e-10))
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
// sweep: bit-for-bit against the four oracle kernels (and NodeConnectivityS
// against NodeConnectivity) on random multigraphs with self-loops, parallel
// edges and several components, on the regular families, on the watched
// chain-client shape at every size it passes through, and with one Scratch
// carried from large graphs to small ones so stale buffer contents show.
func TestPathStatsMatchesPlain(t *testing.T) {
	s := NewScratch()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(80)
		g := randomMultigraph(rng, n, rng.Intn(3*n))
		checkPathStats(t, g, s)
	}
	for n := 0; n <= 12; n++ {
		checkPathStats(t, New(n), s) // edgeless
		checkPathStats(t, pathGraph(n), s)
		checkPathStats(t, starGraph(n), s)
		checkPathStats(t, completeGraph(n), s)
		if n > 0 {
			checkPathStats(t, cycleGraph(n), s)
		}
		for a := 1; a <= 4; a++ {
			checkPathStats(t, completeBipartite(a, n), s)
		}
	}
	for n := 5; n <= 79; n++ {
		checkPathStats(t, chainClientGraph(n), s)
	}
	checkPathStats(t, benchGraph(200), s)
	for n := 80; n >= 1; n -= 3 { // shrinking: every buffer is longer than n
		checkPathStats(t, randomMultigraph(rng, n, 2*n), s)
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

// FuzzPathStats runs the same differential on graphs an input chooses:
// the host graph of a watched client is drawn by whoever the client talks
// to, which makes these kernels attacker-shaped input on the wire path.
func FuzzPathStats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 1, 2})                   // path
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 0, 4, 4, 0}) // star with a reply
	f.Add([]byte{5, 0, 0, 1, 1, 2, 3, 2, 3, 3, 2}) // self-loops, parallel edges, two components
	f.Add([]byte{3, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2}) // cycle with a chord
	s := NewScratch()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip()
		}
		checkPathStats(t, fuzzGraph(data), s)
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

func TestScratchTinyGraphs(t *testing.T) {
	s := NewScratch()
	for _, n := range []int{0, 1, 2} {
		g := New(n)
		if n == 2 {
			if err := g.AddEdge(0, 1); err != nil {
				t.Fatal(err)
			}
		}
		CheckScratchMatches(t, g, s)
	}
}

// TestScratchSteadyStateAllocs pins the zero-allocation contract for the
// analytics passes once the workspace has warmed up on a graph of the same
// size — at 100 nodes, where the sweep used to fan out over goroutines.
func TestScratchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomMultigraph(rng, 100, 330)
	h := randomMultigraph(rng, 100, 350)
	s := NewScratch()
	dst := make([]float64, 0, g.N())
	all := func(g *Digraph) {
		g.PathStatsS(2, s)
		g.NodeConnectivityS(s)
		dst = g.DegreeCentralityInto(dst, s)
		dst = g.AvgNeighborDegreesInto(dst, s)
		dst = g.PageRankInto(dst, s, 0.85, 100, 1e-10)
		g.AvgClusteringCoefficientS(s)
		g.AvgDegreeConnectivityS(s)
	}
	all(g) // warm up every buffer
	all(h)
	allocs := testing.AllocsPerRun(20, func() {
		// Alternating graphs forces a full projection rebuild per call,
		// the incremental steady state, with no fresh allocations.
		all(g)
		all(h)
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state analytics allocated %.1f objects/run, want 0", allocs)
	}
}
