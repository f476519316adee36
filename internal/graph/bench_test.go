package graph

import (
	"math/rand"
	"testing"
)

// benchGraph builds a WCG-shaped graph: a hub (the victim) connected to
// every host, plus a redirect chain and some host-to-host edges — sized
// like the largest graphs in the corpus (hundreds of nodes).
func benchGraph(n int) *Digraph {
	rng := rand.New(rand.NewSource(1))
	g := New(n)
	for v := 1; v < n; v++ {
		_ = g.AddEdge(0, v) // request
		_ = g.AddEdge(v, 0) // response
	}
	for v := 1; v+1 < n/4; v++ {
		_ = g.AddEdge(v, v+1) // chain
	}
	for i := 0; i < n; i++ {
		_ = g.AddEdge(1+rng.Intn(n-1), 1+rng.Intn(n-1))
	}
	return g
}

func BenchmarkCoreNumbers200(b *testing.B) {
	g := benchGraph(200)
	s := NewScratch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.CoreNumbers(s)
	}
}

// BenchmarkPathStatsScratch200 is the one topology recompute that stands
// where the Diameter, Closeness, Betweenness, NodesWithinK, connectivity
// and neighbourhood oracle kernels (plain_ref_test.go) each run their own.
func BenchmarkPathStatsScratch200(b *testing.B) {
	benchPathStats(b, benchGraph(200))
}

// topologySink keeps the benchmarked recompute's result live.
var topologySink TopologyStats

// benchPathStats times a topology recompute of g on a kept Topology
// against a warmed scratch.
func benchPathStats(b *testing.B, g *Digraph) {
	s := NewScratch()
	var top Topology
	top.Recompute(g, 2, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topologySink = top.Recompute(g, 2, s)
	}
}

// BenchmarkPathStatsChainClient79 is the recompute at watch_chain's final
// watched graph size: a victim, a four-host redirect chain and call-back
// leaves, which reuse the victim's BFS.
func BenchmarkPathStatsChainClient79(b *testing.B) {
	benchPathStats(b, chainClientGraph(79))
}

// BenchmarkPathStatsStar4097 is the worst-case shape of one watched
// client: 4 096 hosts on one victim, every one of them a leaf.
func BenchmarkPathStatsStar4097(b *testing.B) {
	benchPathStats(b, starGraph(4096))
}
