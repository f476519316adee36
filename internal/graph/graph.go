// Package graph implements the directed-multigraph representation behind
// DynaMiner's web conversation graph (WCG) and the one library of graph
// analytics the topology features of f7–f25 read. Its one topology entry
// point is Topology (topology.go): Recompute runs the Scratch kernels
// (scratch.go) — one shortest-path sweep, in which the degree-1
// neighbours of one hub (a watched client's call-back hosts) reuse the
// hub's BFS rather than running their own, node connectivity, and one
// neighbourhood pass — which yield integers only; Update moves those
// integers for a new leaf in O(n); and both end in one fold that makes
// every float slot from them. The extended A7 measures (extra.go) run on
// the same cached projections and BFS.
// The graph keeps its edge log, multigraph degrees and both simple
// projections (as sorted pair sets) current as each edge arrives, so the
// counting features (order, size, degree, density, volume, reciprocity)
// read O(1) counters and the Scratch kernels lay out their adjacency
// without sorting. Mean degree centrality, mean betweenness (and with it
// mean load centrality) and mean PageRank are served as closed forms
// over those counters and the sweep's integers (DESIGN.md §8); no
// kernel computes the vectors.
//
// The semantics of every measure follow the NetworkX definitions that the
// paper's feature names are drawn from: distance-based measures operate on
// the undirected simple projection of the multigraph, degree-based measures
// on the multigraph itself, and PageRank on the directed simple projection.
// The plain, allocating kernels live on only as the test oracle in
// plain_ref_test.go: bit for bit for every Topology slot, and within
// 1e-9 for the three closed forms, whose definitions they are.
package graph

import (
	"fmt"
	"slices"
)

// minCap is the capacity each sorted pair set and each Scratch buffer
// starts at, so a small graph's do not regrow on its first few nodes and
// pairs.
const minCap = 16

// Digraph is a directed multigraph over nodes 0..N-1. Parallel edges and
// self-loops are permitted; most analytics project them away as documented
// on each method. The zero value is an empty graph.
//
// The graph stores what its readers read and keeps it current as each
// edge arrives: the edge log, every node's multigraph degree, and the
// directed and undirected simple projections as sorted pair sets, from
// which Scratch lays out its adjacency without sorting.
type Digraph struct {
	edges []uint64 // every edge u<<32|v, in insertion order
	deg   []int    // multigraph degree (in + out) per node
	dir   []uint64 // directed simple projection: sorted distinct u<<32|v, u != v
	und   []uint64 // undirected simple projection: sorted distinct min<<32|max
	recip int      // pairs in dir whose reverse pair is in dir too

	// version counts changes to the simple projections; Scratch uses it
	// to invalidate its cached adjacency of this graph.
	version uint64
}

// Version counts changes to the simple projections: it moves on every
// AddNode and on the first edge between an ordered pair of distinct
// nodes, and stays put on parallel edges and self-loops. Two calls
// observing the same version see the same simple projections.
func (g *Digraph) Version() uint64 { return g.version }

// New returns a Digraph with n isolated nodes.
func New(n int) *Digraph {
	return &Digraph{deg: make([]int, n)}
}

// N returns the number of nodes (the graph order).
func (g *Digraph) N() int { return len(g.deg) }

// M returns the number of edges including parallel edges (the graph size).
func (g *Digraph) M() int { return len(g.edges) }

// SimpleM returns the number of edges of the directed simple projection:
// distinct ordered pairs, self-loops excluded.
func (g *Digraph) SimpleM() int { return len(g.dir) }

// UndirectedM returns the number of edges of the undirected simple
// projection: distinct unordered pairs of distinct nodes.
func (g *Digraph) UndirectedM() int { return len(g.und) }

// Reciprocal returns how many edges of the directed simple projection
// have their reverse edge in it too.
func (g *Digraph) Reciprocal() int { return g.recip }

// AddNode appends a new isolated node and returns its id.
func (g *Digraph) AddNode() int {
	g.deg = append(g.deg, 0)
	g.version++
	return len(g.deg) - 1
}

// AddEdge inserts a directed edge u->v. Parallel edges accumulate.
func (g *Digraph) AddEdge(u, v int) error {
	n := len(g.deg)
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	p := pair(u, v)
	g.edges = append(g.edges, p)
	g.deg[u]++
	g.deg[v]++
	if u == v {
		return nil
	}
	i, seen := slices.BinarySearch(g.dir, p)
	if seen {
		return nil
	}
	g.dir = insertPair(g.dir, i, p)
	if _, rev := slices.BinarySearch(g.dir, pair(v, u)); rev {
		g.recip += 2 // both directions just became reciprocal
	} else {
		// The first edge either way between u and v.
		q := pair(min(u, v), max(u, v))
		j, _ := slices.BinarySearch(g.und, q)
		g.und = insertPair(g.und, j, q)
	}
	g.version++
	return nil
}

// pair packs an ordered node pair into one sortable key.
func pair(u, v int) uint64 { return uint64(u)<<32 | uint64(v) }

// insertPair inserts p at index i of the sorted set s.
func insertPair(s []uint64, i int, p uint64) []uint64 {
	if s == nil {
		s = make([]uint64, 0, minCap)
	}
	return slices.Insert(s, i, p)
}

// Degree returns the total multigraph degree (in + out) of u.
func (g *Digraph) Degree(u int) int { return g.deg[u] }

// Mean is the arithmetic mean of xs, or zero when xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
