package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// plainTopology is the oracle of the slots a Topology serves for g with
// within-k radius k: the plain kernels of plain_ref_test.go, and for mean
// betweenness its integer closed form (held to plain Brandes betweenness
// within topologyTol by CheckScratchMatches and CheckTopologyIdentities).
func plainTopology(g *Digraph, k int) TopologyStats {
	return TopologyStats{
		Diameter:           g.Diameter(),
		WithinK:            g.AvgNodesWithinK(k),
		Closeness:          Mean(g.ClosenessCentrality()),
		Betweenness:        meanBetweennessForm(g),
		Connectivity:       g.NodeConnectivity(),
		Clustering:         g.AvgClusteringCoefficient(),
		NeighborDegree:     Mean(g.AvgNeighborDegrees()),
		DegreeConnectivity: g.AvgDegreeConnectivity(),
	}
}

// sameTopology fails unless got is want bit for bit.
func sameTopology(t *testing.T, ctx string, g *Digraph, k int, got, want TopologyStats) {
	t.Helper()
	if got.Diameter != want.Diameter || got.Connectivity != want.Connectivity {
		t.Fatalf("%s (n=%d, k=%d): diameter %d, connectivity %d; the oracle gives %d, %d",
			ctx, g.N(), k, got.Diameter, got.Connectivity, want.Diameter, want.Connectivity)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"WithinK", got.WithinK, want.WithinK},
		{"Closeness", got.Closeness, want.Closeness},
		{"Betweenness", got.Betweenness, want.Betweenness},
		{"Clustering", got.Clustering, want.Clustering},
		{"NeighborDegree", got.NeighborDegree, want.NeighborDegree},
		{"DegreeConnectivity", got.DegreeConnectivity, want.DegreeConnectivity},
	} {
		sameScalar(t, ctx+": "+f.name, f.got, f.want)
	}
}

// checkTopology holds the slots a Topology served for g to the plain
// oracle, bit for bit.
func checkTopology(t *testing.T, ctx string, g *Digraph, k int, got TopologyStats) {
	t.Helper()
	sameTopology(t, ctx, g, k, got, plainTopology(g, k))
}

// editKind names one kind of structural change a growing graph sees.
type editKind int

const (
	leafOnHub      editKind = iota // a new node joined to the node of highest simple degree
	leafElsewhere                  // a new node joined to any other node
	pairOfExisting                 // a first edge between two existing nodes
	newComponent                   // a new isolated node, or two new nodes joined
	reverseOnly                    // a first edge against an existing one-way pair
	repeatOnly                     // a parallel edge or a self-loop
	joinedTwice                    // a new node joined to two existing nodes
	numEditKinds
)

// wantChange is how Update must classify each kind.
var wantChange = [numEditKinds]Change{NewLeaf, NewLeaf, Recomputed, Recomputed, Unchanged, Unchanged, Recomputed}

// applyEdit applies one change of kind to g and reports whether g had
// room for it (a pair of existing nodes left unjoined, a one-way pair).
func applyEdit(rng *rand.Rand, g *Digraph, kind editKind) bool {
	n := g.N()
	switch kind {
	case leafOnHub, leafElsewhere:
		if n == 0 {
			return false
		}
		hub := 0
		adj := NewScratch().undirected(g)
		for u := range adj {
			if len(adj[u]) > len(adj[hub]) {
				hub = u
			}
		}
		a := hub
		if kind == leafElsewhere {
			if n == 1 {
				return false
			}
			for a == hub {
				a = rng.Intn(n)
			}
		}
		leaf := g.AddNode()
		// A request, often its response, sometimes a repeat, and now and
		// then a self-loop on the new node before or after them.
		loop := rng.Intn(6)
		if loop == 0 {
			_ = g.AddEdge(leaf, leaf)
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			if rng.Intn(2) == 0 {
				_ = g.AddEdge(a, leaf)
			} else {
				_ = g.AddEdge(leaf, a)
			}
		}
		if loop == 1 {
			_ = g.AddEdge(leaf, leaf)
		}
	case pairOfExisting:
		var free [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if _, ok := slices.BinarySearch(g.und, pair(u, v)); !ok {
					free = append(free, [2]int{u, v})
				}
			}
		}
		if len(free) == 0 {
			return false
		}
		p := free[rng.Intn(len(free))]
		if rng.Intn(2) == 0 {
			p[0], p[1] = p[1], p[0]
		}
		_ = g.AddEdge(p[0], p[1])
	case newComponent:
		u := g.AddNode()
		if rng.Intn(2) == 0 {
			_ = g.AddEdge(u, g.AddNode())
		}
	case reverseOnly:
		var oneWay []uint64
		for _, p := range g.dir {
			if _, ok := slices.BinarySearch(g.dir, pair(int(p&0xffffffff), int(p>>32))); !ok {
				oneWay = append(oneWay, p)
			}
		}
		if len(oneWay) == 0 {
			return false
		}
		p := oneWay[rng.Intn(len(oneWay))]
		_ = g.AddEdge(int(p&0xffffffff), int(p>>32))
	case repeatOnly:
		if len(g.edges) == 0 || rng.Intn(3) == 0 {
			if n == 0 {
				return false
			}
			u := rng.Intn(n)
			_ = g.AddEdge(u, u)
		} else {
			p := g.edges[rng.Intn(len(g.edges))]
			_ = g.AddEdge(int(p>>32), int(p&0xffffffff))
		}
	case joinedTwice:
		if n < 2 {
			return false
		}
		u := g.AddNode()
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		_ = g.AddEdge(a, u)
		_ = g.AddEdge(u, b)
	}
	return true
}

// TestTopologyUpdateMatchesRecompute grows random graphs one change at a
// time, through every kind of change in random order, and holds each
// Update to the plain oracle on the grown graph bit for bit, and its
// classification to the kind of change made. The leaf updates it sees
// land on nodes in and out of the kept distance row, in several
// components, at every within-k radius the kernels are tested at.
func TestTopologyUpdateMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	s := NewScratch()
	var seen [numEditKinds]int
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(4)
		g := randomMultigraph(rng, 1+rng.Intn(8), rng.Intn(12))
		var top Topology
		checkTopology(t, "recompute", g, k, top.Recompute(g, k, s))
		for step := 0; step < 40; step++ {
			kind := editKind(rng.Intn(int(numEditKinds)))
			if kind <= leafElsewhere && rng.Intn(2) == 0 {
				kind = leafOnHub // the watched client's commonest change
			}
			if !applyEdit(rng, g, kind) {
				continue
			}
			seen[kind]++
			bfs := s.bfsRuns
			st, change := top.Update(g, s)
			if change != wantChange[kind] {
				t.Fatalf("trial %d step %d: edit kind %d classified %d, want %d", trial, step, kind, change, wantChange[kind])
			}
			if change == Unchanged && s.bfsRuns != bfs {
				t.Fatalf("trial %d step %d: an unchanged projection ran %d BFSes", trial, step, s.bfsRuns-bfs)
			}
			if change != Unchanged {
				checkTopology(t, "update", g, k, st)
			}
		}
		// The changes Update skipped left the kept state right: one more
		// leaf on top of them still matches.
		if applyEdit(rng, g, leafOnHub) {
			st, _ := top.Update(g, s)
			checkTopology(t, "final leaf", g, k, st)
		}
	}
	for kind, c := range seen {
		if c == 0 {
			t.Fatalf("edit kind %d never applied", kind)
		}
	}
}

// TestTopologyLeafUpdateOnStar pins the watched client's loop: a star
// grown leaf by leaf stays on the leaf update after the first sync and
// matches a recompute at every size, and the plain oracle at every size
// up to 100 leaves and every tenth beyond (the plain connectivity
// kernel runs a fresh max-flow per leaf pair, O(n²) on a star).
func TestTopologyLeafUpdateOnStar(t *testing.T) {
	g, s := New(1), NewScratch()
	var top, fresh Topology
	top.Recompute(g, 2, s)
	for i := 0; i < 300; i++ {
		_ = g.AddEdge(0, g.AddNode())
		st, change := top.Update(g, s)
		if change != NewLeaf {
			t.Fatalf("leaf %d: classified %d, want NewLeaf", i, change)
		}
		sameTopology(t, "star, against a recompute", g, 2, st, fresh.Recompute(g, 2, s))
		if i < 100 || i%10 == 9 {
			checkTopology(t, "star", g, 2, st)
		}
	}
}
