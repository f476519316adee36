package graph

// Scratch is a reusable workspace for the graph analytics passes: the
// simple-projection adjacency, the shortest-path sweep's BFS buffers and
// the max-flow arc lists all live here and are reused across calls, so
// repeated analysis of a graph reaches a zero-allocation steady state
// (TestScratchSteadyStateAllocs), and a graph that grows one node at a
// time reallocates each buffer O(log n) times, not on every node
// (TestScratchGrowthAllocs). A Scratch
// may be moved between graphs; projections are keyed on the graph identity
// and its version and laid out again only when stale.
//
// Functions that take a *Scratch parameter treat it as temporaries only:
// they never return the scratch's slices, and results leave as scalars or
// freshly allocated slices. Scratch exports no field and no
// accessor, so code outside this package cannot hold its slices at all.
//
// A Scratch is not safe for concurrent use, and no pass starts a goroutine.
type Scratch struct {
	// Cached undirected/directed simple projections, keyed by graph
	// identity and version.
	undG   *Digraph
	undV   uint64
	und    [][]int
	dirG   *Digraph
	dirV   uint64
	dir    [][]int
	arenaU []int
	arenaD []int
	deg    []int

	// Shortest-path sweep temporaries (PathStatsS; NodeConnectivityS and
	// the extra.go measures borrow its BFS).
	dist  []int
	queue []int
	// bfsRuns counts bfs calls; tests read it to pin the sweep's work.
	bfsRuns int

	// Single-pass temporaries.
	fsum   []float64
	fcnt   []int
	marks  []bool
	marks2 []bool

	// Max-flow workspace for NodeConnectivityS.
	flow flowWS
}

// NewScratch returns an empty workspace.
func NewScratch() *Scratch { return &Scratch{} }

// grow returns s with length n. When n exceeds its capacity it
// reallocates to at least double that capacity (and at least minCap), so
// a buffer sized to a growing graph is reallocated O(log n) times. The
// contents are unspecified: callers clear what they read before writing.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s), minCap))
	}
	return s[:n]
}

// sizeSweep ensures the shortest-path temporaries cover n nodes.
func (s *Scratch) sizeSweep(n int) {
	s.dist = grow(s.dist, n)
	s.queue = grow(s.queue, n)[:0]
}

// undirected returns the cached undirected simple projection of g
// (parallel edges collapsed, self-loops removed), laid out into reused
// storage from the graph's sorted pair set when the graph's version
// moved. Adjacency lists are sorted ascending.
func (s *Scratch) undirected(g *Digraph) [][]int {
	if s.undG == g && s.undV == g.version {
		return s.und
	}
	n := g.N()
	s.deg = grow(s.deg, n)
	clear(s.deg)
	for _, p := range g.und {
		s.deg[int(p>>32)]++
		s.deg[int(p&0xffffffff)]++
	}
	s.arenaU = grow(s.arenaU, 2*len(g.und))
	s.und = grow(s.und, n)
	off := 0
	for u := 0; u < n; u++ {
		s.und[u] = s.arenaU[off : off : off+s.deg[u]]
		off += s.deg[u]
	}
	// Pairs are sorted by (min,max), so each node receives its smaller
	// neighbors (ascending) before its larger ones (ascending): the lists
	// come out sorted without a per-node sort.
	for _, p := range g.und {
		a, b := int(p>>32), int(p&0xffffffff)
		s.und[a] = append(s.und[a], b)
		s.und[b] = append(s.und[b], a)
	}
	s.undG, s.undV = g, g.version
	return s.und
}

// directed returns the cached directed simple projection (distinct
// successors, self-loops removed, sorted ascending), laid out from the
// graph's sorted pair set.
func (s *Scratch) directed(g *Digraph) [][]int {
	if s.dirG == g && s.dirV == g.version {
		return s.dir
	}
	n := g.N()
	s.deg = grow(s.deg, n)
	clear(s.deg)
	for _, p := range g.dir {
		s.deg[int(p>>32)]++
	}
	s.arenaD = grow(s.arenaD, len(g.dir))
	s.dir = grow(s.dir, n)
	off := 0
	for u := 0; u < n; u++ {
		s.dir[u] = s.arenaD[off : off : off+s.deg[u]]
		off += s.deg[u]
	}
	for _, p := range g.dir {
		s.dir[int(p>>32)] = append(s.dir[int(p>>32)], int(p&0xffffffff))
	}
	s.dirG, s.dirV = g, g.version
	return s.dir
}

// PathStats is everything the feature extractor reads off shortest paths
// in the undirected simple projection: the diameter, the mean number of
// nodes within k hops, the node-order mean of Wasserman–Faust closeness,
// and mean betweenness centrality in its closed form.
type PathStats struct {
	Diameter int
	WithinK  float64
	// Closeness is the node-order mean of the closeness vector.
	Closeness float64
	// Betweenness is mean Brandes betweenness (normalised by
	// 1/((n-1)(n-2)), as BetweennessCentrality in plain_ref_test.go is)
	// as one integer ratio: Σ(d − 1) over ordered reachable pairs, over
	// n(n−1)(n−2), rounded once (zero below three nodes). Summed over
	// nodes, the pair dependencies of one source–target pair count the
	// interior nodes of its shortest paths, d − 1 of them on each, so the
	// two agree up to the rounding of Brandes' sums (DESIGN.md §8). Mean
	// Goh load centrality is the same sum under the same normalisation,
	// so the extractor serves f19 as f18.
	Betweenness float64
}

// PathStatsS computes PathStats with one BFS per source, except for the
// degree-1 neighbours (leaves) of one hub, which reuse the hub's BFS. The
// hub is the node of degree ≥ 2 with the most leaf neighbours, lowest id
// on ties; on a watched WCG it is the victim, and most nodes are its
// call-back leaves. A leaf L's BFS is the hub h's shifted by one hop, so
// L's distance aggregates follow from h's integers in O(1): on a watched
// client's star the sweep is a handful of BFSes, however many call-back
// hosts it holds. Diameter, WithinK and Closeness come out of the
// expressions the test oracle uses (plain_ref_test.go), over the same
// operands in the same order, so they are bit-identical to Diameter(),
// AvgNodesWithinK(k) and Mean(ClosenessCentrality()).
func (g *Digraph) PathStatsS(k int, s *Scratch) PathStats { return g.pathStats(k, s, nil) }

// pathStats is PathStatsS. A non-nil t receives every source's
// (Σ distance, reach) and the sweep's integer diameter, within-k count and
// betweenness sum.
func (g *Digraph) pathStats(k int, s *Scratch, t *Topology) PathStats {
	adj := s.undirected(g)
	n := len(adj)
	var ps PathStats
	if n == 0 {
		return ps
	}
	s.sizeSweep(n)
	hub := leafHub(adj)
	var hubSum, hubReach, hubEcc, hubIn, hubNear int
	if hub >= 0 {
		s.bfs(adj, hub)
		hubSum, hubReach, hubEcc, hubIn = s.distAggregates(k)
		_, _, _, hubNear = s.distAggregates(k - 1)
	}
	within, excess := 0, 0
	closeness := 0.0
	for src := range adj {
		var sum, reach, ecc, in int
		switch {
		case src == hub:
			sum, reach, ecc, in = hubSum, hubReach, hubEcc, hubIn
		case hub >= 0 && len(adj[src]) == 1 && adj[src][0] == hub:
			// d_L(h) = 1 and d_L(w) = d_h(w) + 1 for every other w.
			sum, reach, ecc, in = hubSum+hubReach-1, hubReach, hubEcc+1, hubNear
			if k >= 2 {
				in-- // L itself, at d_h = 1
			}
			if k >= 1 {
				in++ // h, at d_L = 1
			}
		default:
			s.bfs(adj, src)
			sum, reach, ecc, in = s.distAggregates(k)
		}
		if t != nil {
			t.nodes[src].sum, t.nodes[src].reach = sum, reach
		}
		within += in
		excess += sum - reach
		if sum > 0 {
			if ecc > ps.Diameter {
				ps.Diameter = ecc
			}
			closeness += closenessTerm(sum, reach, n)
		}
	}
	if t != nil {
		t.diameter, t.within, t.excess = ps.Diameter, within, excess
	}
	ps.WithinK = float64(within) / float64(n)
	ps.Closeness = closeness / float64(n)
	if n >= 3 {
		ps.Betweenness = float64(excess) / float64(n*(n-1)*(n-2))
	}
	return ps
}

// closenessTerm is one source's Wasserman–Faust closeness: the share of
// the other nodes it reaches times the reciprocal of their mean distance.
func closenessTerm(sum, reach, n int) float64 {
	frac := float64(reach) / float64(n-1)
	return frac * float64(reach) / float64(sum)
}

// leafHub returns the node of degree ≥ 2 with the most degree-1
// neighbours (lowest id on ties), or -1 when no node has one.
func leafHub(adj [][]int) int {
	hub, most := -1, 0
	for u, vs := range adj {
		if len(vs) < 2 {
			continue
		}
		leaves := 0
		for _, v := range vs {
			if len(adj[v]) == 1 {
				leaves++
			}
		}
		if leaves > most {
			hub, most = u, leaves
		}
	}
	return hub
}

// distAggregates reads the BFS bfs last ran, its source excluded: the
// distance sum, the number of nodes reached, the eccentricity and how
// many lie within k hops.
func (s *Scratch) distAggregates(k int) (sum, reach, ecc, within int) {
	// The queue holds the reachable nodes in nondecreasing distance.
	reached := s.queue[1:]
	for _, v := range reached {
		d := s.dist[v]
		sum += d
		if d <= k {
			within++
		}
	}
	if len(reached) > 0 {
		ecc = s.dist[reached[len(reached)-1]]
	}
	return sum, len(reached), ecc, within
}

// bfs runs a breadth-first search from src: distances in s.dist (-1
// unreachable) and the visit order, nondecreasing in distance, in s.queue.
func (s *Scratch) bfs(adj [][]int, src int) {
	s.bfsRuns++
	dist := s.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := append(s.queue[:0], src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	s.queue = queue
}

// NodeConnectivityS is the minimum number of nodes whose removal
// disconnects the undirected simple projection (or isolates a node): 0
// for a disconnected graph, n-1 for a complete one, otherwise the exact
// vertex-split max-flow search between a minimum-degree node and every
// non-neighbour, plus neighbour-of-source pairs. It runs on the scratch
// projection, the sweep's BFS for the connectivity pre-check, and the
// scratch's max-flow workspace, so a warm scratch computes connectivity
// without allocating. Two exact bounds keep
// the common shapes off the flow loops: a connected graph has κ ≥ 1 and
// every graph κ ≤ δ, so a degree-1 node settles κ = 1 outright, and the
// search stops the moment any pair's local connectivity reaches 1.
func (g *Digraph) NodeConnectivityS(s *Scratch) int {
	adj := s.undirected(g)
	n := len(adj)
	if n < 2 {
		return 0
	}
	s.sizeSweep(n)
	s.bfs(adj, 0)
	if len(s.queue) < n {
		return 0 // disconnected
	}
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
	st := 0
	for u := range adj {
		if len(adj[u]) < len(adj[st]) {
			st = u
		}
	}
	if len(adj[st]) == 1 {
		return 1
	}
	best := n
	s.marks = grow(s.marks, n)
	clear(s.marks)
	for _, v := range adj[st] {
		s.marks[v] = true
	}
	for t := 0; t < n; t++ {
		if t == st || s.marks[t] {
			continue
		}
		if k := localNodeConnectivityS(adj, st, t, &s.flow); k < best {
			best = k
		}
		if best == 1 {
			return 1
		}
	}
	s.marks2 = grow(s.marks2, n)
	clear(s.marks2)
	for _, v := range adj[st] {
		for _, w := range adj[v] {
			s.marks2[w] = true
		}
		for t := 0; t < n; t++ {
			if t == v || t == st || s.marks2[t] {
				continue
			}
			if k := localNodeConnectivityS(adj, v, t, &s.flow); k < best {
				best = k
			}
			if best == 1 {
				return 1
			}
		}
		for _, w := range adj[v] {
			s.marks2[w] = false
		}
	}
	if best == n {
		best = n - 1
	}
	return best
}

// AvgClusteringCoefficientS is the mean local clustering coefficient
// (f21) of the undirected simple projection: per node, the fraction of
// pairs of its neighbours that are themselves adjacent (zero below
// degree 2), accumulated in node order.
func (g *Digraph) AvgClusteringCoefficientS(s *Scratch) float64 { return g.clustering(s, nil) }

// clustering is AvgClusteringCoefficientS. A non-nil t receives every
// node's count of links among its neighbours.
func (g *Digraph) clustering(s *Scratch, t *Topology) float64 {
	adj := s.undirected(g)
	n := len(adj)
	if n == 0 {
		return 0
	}
	s.marks = grow(s.marks, n)
	clear(s.marks)
	sum := 0.0
	for u := range adj {
		k := len(adj[u])
		links := 0
		if k >= 2 {
			for _, v := range adj[u] {
				s.marks[v] = true
			}
			for _, v := range adj[u] {
				for _, w := range adj[v] {
					if w > v && s.marks[w] {
						links++
					}
				}
			}
			for _, v := range adj[u] {
				s.marks[v] = false
			}
			sum += clusteringTerm(links, k)
		}
		if t != nil {
			t.nodes[u].links = links
		}
	}
	return sum / float64(n)
}

// clusteringTerm is the local clustering coefficient of a node of degree
// k ≥ 2 whose neighbours share links edges.
func clusteringTerm(links, k int) float64 {
	return 2 * float64(links) / (float64(k) * float64(k-1))
}

// AvgNeighborDegreeS is the mean over nodes of each node's mean
// neighbour degree in the undirected simple projection (f22; an isolated
// node's is zero), summed in node order: bit-identical to the Mean of the
// AvgNeighborDegrees vector.
func (g *Digraph) AvgNeighborDegreeS(s *Scratch) float64 { return g.neighborDegree(s, nil) }

// neighborDegree is AvgNeighborDegreeS. A non-nil t receives every node's
// degree and the sum of its neighbours' degrees.
func (g *Digraph) neighborDegree(s *Scratch, t *Topology) float64 {
	adj := s.undirected(g)
	if len(adj) == 0 {
		return 0
	}
	sum := 0.0
	for u := range adj {
		deg := 0
		for _, v := range adj[u] {
			deg += len(adj[v])
		}
		if t != nil {
			t.nodes[u].deg, t.nodes[u].nbr = len(adj[u]), deg
		}
		if len(adj[u]) == 0 {
			continue // adding the vector's zero would leave sum as it is
		}
		sum += float64(deg) / float64(len(adj[u]))
	}
	return sum / float64(len(adj))
}

// AvgDegreeConnectivityS is "average degree for connected nodes" (f23) as
// one scalar: the NetworkX average degree connectivity (for each degree
// k, the mean neighbour degree over nodes of degree k) averaged over the
// degrees present. Per-degree sums live in slice buckets and combine in
// ascending-degree order, so the low bits are deterministic.
func (g *Digraph) AvgDegreeConnectivityS(s *Scratch) float64 {
	adj := s.undirected(g)
	maxDeg := 0
	for u := range adj {
		if len(adj[u]) > maxDeg {
			maxDeg = len(adj[u])
		}
	}
	s.fsum = grow(s.fsum, maxDeg+1)
	clear(s.fsum)
	s.fcnt = grow(s.fcnt, maxDeg+1)
	clear(s.fcnt)
	for u := range adj {
		k := len(adj[u])
		if k == 0 {
			continue
		}
		sum := 0
		for _, v := range adj[u] {
			sum += len(adj[v])
		}
		s.fsum[k] += float64(sum) / float64(k)
		s.fcnt[k]++
	}
	return s.degreeConnectivity(maxDeg)
}

// degreeConnectivity combines the per-degree neighbour-degree sums and
// node counts in s.fsum and s.fcnt, degrees 1 to maxDeg, in ascending
// degree order: the mean over the degrees present of each degree's mean.
func (s *Scratch) degreeConnectivity(maxDeg int) float64 {
	degrees := 0
	total := 0.0
	for k := 1; k <= maxDeg; k++ {
		if s.fcnt[k] == 0 {
			continue
		}
		total += s.fsum[k] / float64(s.fcnt[k])
		degrees++
	}
	if degrees == 0 {
		return 0
	}
	return total / float64(degrees)
}
