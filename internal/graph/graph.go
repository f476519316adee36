// Package graph implements the directed-multigraph representation behind
// DynaMiner's web conversation graph (WCG) and the one library of graph
// analytics the topology features of f7–f25 read: the Scratch kernels
// (scratch.go) — one shortest-path sweep for diameter, closeness,
// betweenness and within-k, in which the degree-1 neighbours of one hub
// (a watched client's call-back hosts) reuse the hub's BFS bit for bit
// rather than running their own, plus node connectivity, degree centrality,
// clustering, neighbourhood statistics and PageRank — and the extended
// A7 measures (extra.go) on the same cached projections and BFS. The
// counting features (order, size, degree, density, volume, reciprocity)
// are maintained by the WCG itself. Mean load centrality is not computed:
// it equals mean betweenness on every graph, and f19 is served as f18.
//
// The semantics of every measure follow the NetworkX definitions that the
// paper's feature names are drawn from: distance-based measures operate on
// the undirected simple projection of the multigraph, degree-based measures
// on the multigraph itself, and PageRank on the directed simple projection.
// The plain, allocating kernels the Scratch kernels replaced live on only
// as the bit-for-bit test oracle in plain_ref_test.go.
package graph

import "fmt"

// Digraph is a directed multigraph over nodes 0..N-1. Parallel edges and
// self-loops are permitted; most analytics project them away as documented
// on each method. The zero value is an empty graph.
type Digraph struct {
	out [][]int // out[u] lists v for every edge u->v (with multiplicity)
	in  [][]int // in[v] lists u for every edge u->v (with multiplicity)
	m   int     // total number of edges including parallels

	// version counts mutations; Scratch uses it to invalidate cached
	// projections of this graph.
	version uint64
}

// Version returns the mutation counter, incremented by every AddNode and
// AddEdge. Two calls observing the same version see the same topology.
func (g *Digraph) Version() uint64 { return g.version }

// New returns a Digraph with n isolated nodes.
func New(n int) *Digraph {
	return &Digraph{
		out: make([][]int, n),
		in:  make([][]int, n),
	}
}

// N returns the number of nodes (the graph order).
func (g *Digraph) N() int { return len(g.out) }

// M returns the number of edges including parallel edges (the graph size).
func (g *Digraph) M() int { return g.m }

// AddNode appends a new isolated node and returns its id.
func (g *Digraph) AddNode() int {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.version++
	return len(g.out) - 1
}

// AddEdge inserts a directed edge u->v. Parallel edges accumulate.
func (g *Digraph) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.out) || v < 0 || v >= len(g.out) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.out))
	}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.m++
	g.version++
	return nil
}

// OutDegree returns the multigraph out-degree of u.
func (g *Digraph) OutDegree(u int) int { return len(g.out[u]) }

// InDegree returns the multigraph in-degree of u.
func (g *Digraph) InDegree(u int) int { return len(g.in[u]) }

// Degree returns the total multigraph degree (in + out) of u.
func (g *Digraph) Degree(u int) int { return len(g.in[u]) + len(g.out[u]) }

// OutNeighbors returns the multiset of successors of u. The returned slice
// aliases internal storage and must not be modified.
func (g *Digraph) OutNeighbors(u int) []int { return g.out[u] }

// InNeighbors returns the multiset of predecessors of u. The returned slice
// aliases internal storage and must not be modified.
func (g *Digraph) InNeighbors(u int) []int { return g.in[u] }

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
