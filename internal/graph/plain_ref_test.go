package graph

import "sort"

// The plain, allocating graph kernels that the Scratch kernels and
// Topology replaced, kept as the oracle: every Topology slot must be
// exactly (bit for bit) what these return, on every graph, and the
// closed forms served for mean DegreeCentrality, BetweennessCentrality
// and PageRank must lie within 1e-9 of their means
// (CheckTopologyIdentities). Each one builds
// its own map-based projection and runs its own BFS per source — do not
// optimise them, their value is that each reads as its definition. They
// are exported so the external graph_test differential over synthetic
// WCGs can use them too.

// outLists re-derives the multiset successor lists from the edge log:
// out[u] lists v for every edge u->v, in insertion order. The oracles
// read it rather than the graph's maintained projections.
func (g *Digraph) outLists() [][]int {
	out := make([][]int, g.N())
	for _, p := range g.edges {
		u, v := int(p>>32), int(p&0xffffffff)
		out[u] = append(out[u], v)
	}
	return out
}

// undirectedSimple returns, for each node, the sorted set of distinct
// neighbors in the undirected simple projection (parallel edges collapsed,
// self-loops removed).
func (g *Digraph) undirectedSimple() [][]int {
	n := g.N()
	adj := make([][]int, n)
	seen := make(map[[2]int]struct{}, g.M())
	add := func(u, v int) {
		if u == v {
			return
		}
		key := [2]int{u, v}
		if u > v {
			key = [2]int{v, u}
		}
		if _, ok := seen[key]; ok {
			return
		}
		seen[key] = struct{}{}
		adj[key[0]] = append(adj[key[0]], key[1])
		adj[key[1]] = append(adj[key[1]], key[0])
	}
	for u, vs := range g.outLists() {
		for _, v := range vs {
			add(u, v)
		}
	}
	for u := range adj {
		sort.Ints(adj[u])
	}
	return adj
}

// directedSimple returns, for each node, the sorted set of distinct
// successors (parallel edges collapsed; self-loops removed).
func (g *Digraph) directedSimple() [][]int {
	n := g.N()
	adj := make([][]int, n)
	for u, vs := range g.outLists() {
		set := make(map[int]struct{}, len(vs))
		for _, v := range vs {
			if v != u {
				set[v] = struct{}{}
			}
		}
		for v := range set {
			adj[u] = append(adj[u], v)
		}
		sort.Ints(adj[u])
	}
	return adj
}

// Density measures how close the number of simple directed edges is to the
// maximum possible: m_simple / (n*(n-1)). Zero for graphs with fewer than
// two nodes.
func (g *Digraph) Density() float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	simple := 0
	for _, vs := range g.directedSimple() {
		simple += len(vs)
	}
	return float64(simple) / float64(n*(n-1))
}

// Volume is the sum of multigraph degrees over all nodes (2·M).
func (g *Digraph) Volume() int { return 2 * g.M() }

// AvgInDegree is the mean multigraph in-degree (M/N).
func (g *Digraph) AvgInDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(g.M()) / float64(g.N())
}

// AvgOutDegree is the mean multigraph out-degree (M/N). It equals
// AvgInDegree because every edge contributes to exactly one of each.
func (g *Digraph) AvgOutDegree() float64 { return g.AvgInDegree() }

// MaxDegree returns the largest multigraph degree in the graph, or zero for
// the empty graph.
func (g *Digraph) MaxDegree() int {
	best := 0
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(u); d > best {
			best = d
		}
	}
	return best
}

// Reciprocity is the fraction of simple directed edges (u,v) for which the
// reverse edge (v,u) also exists. Zero for edgeless graphs.
func (g *Digraph) Reciprocity() float64 {
	adj := g.directedSimple()
	has := make(map[[2]int]struct{})
	total := 0
	for u, vs := range adj {
		for _, v := range vs {
			has[[2]int{u, v}] = struct{}{}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	recip := 0
	for e := range has {
		if _, ok := has[[2]int{e[1], e[0]}]; ok {
			recip++
		}
	}
	return float64(recip) / float64(total)
}

// DegreeCentrality returns, for every node, its undirected simple degree
// normalized by n-1 (the NetworkX convention). For graphs with fewer than
// two nodes all values are zero.
func (g *Digraph) DegreeCentrality() []float64 {
	adj := g.undirectedSimple()
	n := len(adj)
	cent := make([]float64, n)
	if n < 2 {
		return cent
	}
	norm := 1 / float64(n-1)
	for u := range adj {
		cent[u] = float64(len(adj[u])) * norm
	}
	return cent
}

// ClosenessCentrality returns the improved (Wasserman–Faust) closeness for
// every node on the undirected simple projection:
//
//	C(u) = ((r-1)/(n-1)) * ((r-1)/Σ d(u,v))
//
// where r is the number of nodes reachable from u. Isolated nodes score 0.
func (g *Digraph) ClosenessCentrality() []float64 {
	adj := g.undirectedSimple()
	n := len(adj)
	cent := make([]float64, n)
	if n < 2 {
		return cent
	}
	for u := range adj {
		sum, reach := 0, 0
		for _, d := range bfsDistances(adj, u) {
			if d > 0 {
				sum += d
				reach++
			}
		}
		if sum > 0 {
			frac := float64(reach) / float64(n-1)
			cent[u] = frac * float64(reach) / float64(sum)
		}
	}
	return cent
}

// BetweennessCentrality computes exact shortest-path betweenness on the
// undirected simple projection using Brandes' algorithm, normalized by
// 2/((n-1)(n-2)) so values are comparable across graph sizes.
func (g *Digraph) BetweennessCentrality() []float64 {
	adj := g.undirectedSimple()
	n := len(adj)
	cent := make([]float64, n)
	if n < 3 {
		return cent
	}
	sigma := make([]float64, n)
	dist := make([]int, n)
	delta := make([]float64, n)
	preds := make([][]int, n)
	stack := make([]int, 0, n)
	queue := make([]int, 0, n)

	for s := 0; s < n; s++ {
		stack = stack[:0]
		queue = queue[:0]
		for i := 0; i < n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		sigma[s] = 1
		dist[s] = 0
		queue = append(queue, s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				cent[w] += delta[w]
			}
		}
	}
	// Undirected: every pair was counted twice; normalize to [0,1].
	norm := 1 / (float64(n-1) * float64(n-2))
	for i := range cent {
		cent[i] *= norm
	}
	return cent
}

// LoadCentrality computes Goh-style load centrality on the undirected
// simple projection: a unit commodity is routed from every source to every
// other node along shortest paths, splitting equally among the predecessors
// at each branch, and each node accumulates the load passing through it.
// Values are normalized by 2/((n-1)(n-2)) to match NetworkX. Its mean is
// the mean of BetweennessCentrality on every graph
// (TestMeanBetweennessEqualsMeanLoad), which is why f19 is served as f18.
func (g *Digraph) LoadCentrality() []float64 {
	adj := g.undirectedSimple()
	n := len(adj)
	cent := make([]float64, n)
	if n < 3 {
		return cent
	}
	for s := 0; s < n; s++ {
		dist := bfsDistances(adj, s)
		// Order nodes by decreasing distance from s.
		order := make([]int, 0, n)
		for v, d := range dist {
			if d > 0 {
				order = append(order, v)
			}
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && dist[order[j]] > dist[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		load := make([]float64, n)
		for v := range load {
			if dist[v] > 0 {
				load[v] = 1 // each node must receive one unit from s
			}
		}
		for _, w := range order {
			var preds []int
			for _, v := range adj[w] {
				if dist[v] >= 0 && dist[v] == dist[w]-1 {
					preds = append(preds, v)
				}
			}
			if len(preds) == 0 {
				continue
			}
			share := load[w] / float64(len(preds))
			for _, v := range preds {
				if v != s {
					cent[v] += share
				}
				load[v] += share
			}
		}
	}
	norm := 1 / (float64(n-1) * float64(n-2))
	for i := range cent {
		cent[i] *= norm
	}
	return cent
}

// PageRank computes PageRank with damping factor d over the directed simple
// projection using power iteration (up to iters rounds, stopping early when
// the L1 change drops below tol). Dangling mass is redistributed uniformly.
func (g *Digraph) PageRank(d float64, iters int, tol float64) []float64 {
	adj := g.directedSimple()
	n := len(adj)
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for u := range adj {
			if len(adj[u]) == 0 {
				dangling += rank[u]
			}
		}
		base := (1-d)*inv + d*dangling*inv
		for i := range next {
			next[i] = base
		}
		for u, vs := range adj {
			if len(vs) == 0 {
				continue
			}
			share := d * rank[u] / float64(len(vs))
			for _, v := range vs {
				next[v] += share
			}
		}
		diff := 0.0
		for i := range rank {
			delta := next[i] - rank[i]
			if delta < 0 {
				delta = -delta
			}
			diff += delta
		}
		rank, next = next, rank
		if diff < tol {
			break
		}
	}
	return rank
}

// ClusteringCoefficients returns the local clustering coefficient of every
// node on the undirected simple projection: the fraction of pairs of a
// node's neighbors that are themselves adjacent. Nodes with degree < 2
// score zero.
func (g *Digraph) ClusteringCoefficients() []float64 {
	adj := g.undirectedSimple()
	n := len(adj)
	coeff := make([]float64, n)
	isNbr := make([]bool, n)
	for u := range adj {
		k := len(adj[u])
		if k < 2 {
			continue
		}
		for _, v := range adj[u] {
			isNbr[v] = true
		}
		links := 0
		for _, v := range adj[u] {
			for _, w := range adj[v] {
				if w > v && isNbr[w] {
					links++
				}
			}
		}
		for _, v := range adj[u] {
			isNbr[v] = false
		}
		coeff[u] = 2 * float64(links) / (float64(k) * float64(k-1))
	}
	return coeff
}

// AvgClusteringCoefficient is the mean local clustering coefficient (f21).
func (g *Digraph) AvgClusteringCoefficient() float64 {
	return Mean(g.ClusteringCoefficients())
}

// AvgNeighborDegrees returns, for each node, the mean undirected simple
// degree of its neighbors (f22). Isolated nodes score zero.
func (g *Digraph) AvgNeighborDegrees() []float64 {
	adj := g.undirectedSimple()
	vals := make([]float64, len(adj))
	for u := range adj {
		if len(adj[u]) == 0 {
			continue
		}
		sum := 0
		for _, v := range adj[u] {
			sum += len(adj[v])
		}
		vals[u] = float64(sum) / float64(len(adj[u]))
	}
	return vals
}

// AverageDegreeConnectivity returns the NetworkX-style map from degree k to
// the average neighbor degree over all nodes of degree k, computed on the
// undirected simple projection (f23).
func (g *Digraph) AverageDegreeConnectivity() map[int]float64 {
	adj := g.undirectedSimple()
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for u := range adj {
		k := len(adj[u])
		if k == 0 {
			continue
		}
		sum := 0
		for _, v := range adj[u] {
			sum += len(adj[v])
		}
		sums[k] += float64(sum) / float64(k)
		counts[k]++
	}
	out := make(map[int]float64, len(sums))
	for k, s := range sums {
		out[k] = s / float64(counts[k])
	}
	return out
}

// AvgDegreeConnectivity collapses AverageDegreeConnectivity to a scalar by
// averaging the per-degree values, giving "average degree for connected
// nodes" (f23) as a single feature.
func (g *Digraph) AvgDegreeConnectivity() float64 {
	m := g.AverageDegreeConnectivity()
	if len(m) == 0 {
		return 0
	}
	// Sum in ascending-degree order: float addition is not associative,
	// so map iteration order would make the low bits nondeterministic.
	degrees := make([]int, 0, len(m))
	for k := range m {
		degrees = append(degrees, k)
	}
	sort.Ints(degrees)
	sum := 0.0
	for _, k := range degrees {
		sum += m[k]
	}
	return sum / float64(len(m))
}

// bfsDistances runs a breadth-first search over the given adjacency lists
// starting at src and returns the distance to every node, with -1 marking
// unreachable nodes.
func bfsDistances(adj [][]int, src int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Diameter is the longest shortest-path distance between any pair of nodes
// in the undirected simple projection. For disconnected graphs it is the
// maximum eccentricity over reachable pairs (the diameter of the largest
// component by eccentricity), so it stays finite and comparable between
// WCGs, which are frequently weakly connected but occasionally fragmented.
func (g *Digraph) Diameter() int {
	adj := g.undirectedSimple()
	best := 0
	for src := range adj {
		for _, d := range bfsDistances(adj, src) {
			if d > best {
				best = d
			}
		}
	}
	return best
}

// ConnectedComponents returns the weakly connected components of the graph
// as slices of node ids, largest first.
func (g *Digraph) ConnectedComponents() [][]int {
	adj := g.undirectedSimple()
	seen := make([]bool, len(adj))
	var comps [][]int
	for s := range adj {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && len(comps[j]) > len(comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return comps
}

// IsConnected reports whether the undirected simple projection is a single
// connected component. Graphs with fewer than two nodes are connected.
func (g *Digraph) IsConnected() bool {
	if g.N() < 2 {
		return true
	}
	return len(g.ConnectedComponents()) == 1
}

// NodesWithinK returns, for each node, the number of other nodes whose
// undirected shortest-path distance is at most k. This backs feature f24
// (Avg-K-Nearest-Neighbors): "average number of nodes at k-nodes distance
// from each node".
func (g *Digraph) NodesWithinK(k int) []int {
	adj := g.undirectedSimple()
	counts := make([]int, len(adj))
	for src := range adj {
		for v, d := range bfsDistances(adj, src) {
			if v != src && d > 0 && d <= k {
				counts[src]++
			}
		}
	}
	return counts
}

// AvgNodesWithinK is the mean of NodesWithinK over all nodes; zero for the
// empty graph.
func (g *Digraph) AvgNodesWithinK(k int) float64 {
	counts := g.NodesWithinK(k)
	if len(counts) == 0 {
		return 0
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	return float64(sum) / float64(len(counts))
}

// NodeConnectivity is the minimum number of nodes whose removal disconnects
// the undirected simple projection (or isolates a node), computed exactly
// via vertex-split max-flow between a fixed source and every non-neighbor,
// plus neighbor-of-source pairs — the standard exact algorithm. It returns
// 0 for disconnected graphs and n-1 for complete graphs.
func (g *Digraph) NodeConnectivity() int {
	adj := g.undirectedSimple()
	n := len(adj)
	if n < 2 {
		return 0
	}
	if !g.IsConnected() {
		return 0
	}
	// Complete graph: connectivity is n-1 and no vertex cut exists.
	complete := true
	for u := range adj {
		if len(adj[u]) != n-1 {
			complete = false
			break
		}
	}
	if complete {
		return n - 1
	}
	// Pick a minimum-degree node as the fixed endpoint.
	s := 0
	for u := range adj {
		if len(adj[u]) < len(adj[s]) {
			s = u
		}
	}
	best := n // upper bound
	isNbr := make([]bool, n)
	for _, v := range adj[s] {
		isNbr[v] = true
	}
	for t := 0; t < n; t++ {
		if t == s || isNbr[t] {
			continue
		}
		if k := localNodeConnectivity(adj, s, t); k < best {
			best = k
		}
	}
	// Also consider cuts separating neighbors of s from each other.
	for _, v := range adj[s] {
		vNbr := make(map[int]bool, len(adj[v]))
		for _, w := range adj[v] {
			vNbr[w] = true
		}
		for t := 0; t < n; t++ {
			if t == v || t == s || vNbr[t] {
				continue
			}
			if k := localNodeConnectivity(adj, v, t); k < best {
				best = k
			}
		}
	}
	if best == n {
		best = n - 1
	}
	return best
}

// localNodeConnectivity computes the maximum number of internally
// node-disjoint paths between s and t via unit-capacity max-flow on the
// vertex-split graph, on a fresh workspace per call.
func localNodeConnectivity(adj [][]int, s, t int) int {
	var ws flowWS
	return localNodeConnectivityS(adj, s, t, &ws)
}
