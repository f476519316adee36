package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestExtraMatchesPlain holds the A7 measures, which read the Scratch
// projections and the sweep's BFS, to the oracle's map-based projections
// and per-source BFS: each scratch adjacency list is the oracle's sorted
// neighbour set (so the unchanged Tarjan, core-peeling and assortativity
// loops see the same input), each eccentricity is the oracle's BFS
// maximum, and the radius is the least of them over the component
// ConnectedComponents ranks first. One scratch is carried across all of
// them, so stale buffers of a larger graph would show.
func TestExtraMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	s := NewScratch()
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		g := randomMultigraph(rng, n, rng.Intn(3*n))
		und, dir := g.undirectedSimple(), g.directedSimple()
		gotUnd, gotDir := s.undirected(g), s.directed(g)
		for u := 0; u < n; u++ {
			if !slices.Equal(gotUnd[u], und[u]) || !slices.Equal(gotDir[u], dir[u]) {
				t.Fatalf("trial %d node %d: projections %v/%v, oracle %v/%v",
					trial, u, gotUnd[u], gotDir[u], und[u], dir[u])
			}
		}
		want := make([]int, n)
		for u := range want {
			want[u] = slices.Max(bfsDistances(und, u))
		}
		if got := g.Eccentricities(s); !slices.Equal(got, want) {
			t.Fatalf("trial %d: eccentricities %v, oracle %v", trial, got, want)
		}
		radius := 0
		if comps := g.ConnectedComponents(); len(comps[0]) >= 2 {
			radius = n
			for _, u := range comps[0] {
				radius = min(radius, want[u])
			}
		}
		if got := g.Radius(s); got != radius {
			t.Fatalf("trial %d: radius %d, oracle %d", trial, got, radius)
		}
	}
}

func TestEccentricitiesAndRadius(t *testing.T) {
	// Path 0-1-2-3-4: eccentricities 4,3,2,3,4; radius 2.
	s := NewScratch()
	g := pathGraph(5)
	ecc := g.Eccentricities(s)
	want := []int{4, 3, 2, 3, 4}
	for i, w := range want {
		if ecc[i] != w {
			t.Fatalf("ecc[%d] = %d, want %d", i, ecc[i], w)
		}
	}
	if r := g.Radius(s); r != 2 {
		t.Fatalf("radius = %d, want 2", r)
	}
	// Star: hub eccentricity 1, leaves 2; radius 1.
	if r := starGraph(4).Radius(s); r != 1 {
		t.Fatalf("star radius = %d", r)
	}
}

func TestRadiusEdgeCases(t *testing.T) {
	s := NewScratch()
	if New(0).Radius(s) != 0 || New(1).Radius(s) != 0 || New(3).Radius(s) != 0 {
		t.Fatal("edgeless graph radius must be 0")
	}
	// Disconnected: radius comes from the largest component.
	g := New(5)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(3, 4)
	if r := g.Radius(s); r != 1 {
		t.Fatalf("disconnected radius = %d, want 1 (path of 3)", r)
	}
	// Two components of four: the one holding node 0 counts, a path of
	// radius 2 beside a star of radius 1.
	g = New(8)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 3)
	for v := 5; v < 8; v++ {
		_ = g.AddEdge(4, v)
	}
	if r := g.Radius(s); r != 2 {
		t.Fatalf("tied components radius = %d, want 2 (the path holding node 0)", r)
	}
}

func TestStronglyConnectedComponents(t *testing.T) {
	// Cycle 0->1->2->0 plus tail 2->3->4.
	g := New(5)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 0)
	_ = g.AddEdge(2, 3)
	_ = g.AddEdge(3, 4)
	comps := g.StronglyConnectedComponents(NewScratch())
	if len(comps) != 3 {
		t.Fatalf("sccs = %d, want 3: %v", len(comps), comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 || comps[0][2] != 2 {
		t.Fatalf("largest scc = %v, want [0 1 2]", comps[0])
	}
	// A DAG has only singleton SCCs.
	dag := pathGraph(4)
	if got := len(dag.StronglyConnectedComponents(NewScratch())); got != 4 {
		t.Fatalf("dag sccs = %d, want 4", got)
	}
	// Two interlocking cycles merge into one SCC.
	g2 := cycleGraph(4)
	_ = g2.AddEdge(2, 1)
	if got := g2.StronglyConnectedComponents(NewScratch()); len(got) != 1 || len(got[0]) != 4 {
		t.Fatalf("merged scc = %v", got)
	}
}

func TestSCCCoversAllNodes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(15)
		g := randomGraph(n, r.Intn(4*n), r)
		seen := make(map[int]int)
		for _, comp := range g.StronglyConnectedComponents(NewScratch()) {
			for _, u := range comp {
				seen[u]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreNumbers(t *testing.T) {
	// Complete graph K4: every node has core number 3.
	for _, c := range completeGraph(4).CoreNumbers(NewScratch()) {
		if c != 3 {
			t.Fatalf("K4 core = %d, want 3", c)
		}
	}
	// Path: all core 1.
	for _, c := range pathGraph(5).CoreNumbers(NewScratch()) {
		if c != 1 {
			t.Fatalf("path core = %d, want 1", c)
		}
	}
	// Triangle plus pendant: triangle cores 2, pendant 1.
	g := completeGraph(3)
	p := g.AddNode()
	_ = g.AddEdge(0, p)
	s := NewScratch()
	cores := g.CoreNumbers(s)
	if cores[0] != 2 || cores[1] != 2 || cores[2] != 2 || cores[3] != 1 {
		t.Fatalf("cores = %v", cores)
	}
	if d := g.Degeneracy(s); d != 2 {
		t.Fatalf("degeneracy = %d", d)
	}
}

func TestCoreNumbersBoundedByDegree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g := randomGraph(n, r.Intn(5*n), r)
		adj := g.undirectedSimple()
		for u, c := range g.CoreNumbers(NewScratch()) {
			if c > len(adj[u]) || c < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeAssortativity(t *testing.T) {
	// Star graphs are maximally disassortative: coefficient -1.
	if a := starGraph(5).DegreeAssortativity(NewScratch()); math.Abs(a+1) > 1e-9 {
		t.Fatalf("star assortativity = %v, want -1", a)
	}
	// Regular graphs have undefined correlation; we return 0.
	if a := cycleGraph(6).DegreeAssortativity(NewScratch()); a != 0 {
		t.Fatalf("cycle assortativity = %v, want 0", a)
	}
	// Range check on random graphs.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(3+r.Intn(15), r.Intn(40), r)
		a := g.DegreeAssortativity(NewScratch())
		return a >= -1-1e-9 && a <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
