package graph

// Scratch is a reusable workspace for the graph analytics passes: the
// simple-projection adjacency, the shortest-path sweep's BFS and
// dependency buffers and its hub's kept run, and the max-flow arc lists
// all live here and are reused across calls, so repeated analysis of a
// growing graph reaches a zero-allocation steady state
// (TestScratchSteadyStateAllocs). A Scratch
// may be moved between graphs; projections are keyed on the graph identity
// and its version and laid out again only when stale.
//
// Functions that take a *Scratch parameter treat it as temporaries only:
// they never return the scratch's slices, and results go into caller-owned
// dst buffers or leave as scalars. Scratch exports no field and no
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
	sigma []float64
	delta []float64
	betw  []float64
	preds [][]int
	// bfsRuns counts bfsPaths calls; tests read it to pin the sweep's work.
	bfsRuns int

	// The leaf hub's run, kept by PathStatsS for its degree-1 neighbours:
	// the nonzero dependencies δ_h(w), and h's neighbours c with their
	// first-level terms σ_h/σ_c·(1+δ_h(c)) in reverse visit order.
	hubNZ    []int
	hubDelta []float64
	hubKids  []int
	hubTerms []float64

	// Single-pass temporaries.
	fsum   []float64
	fcnt   []int
	marks  []bool
	marks2 []bool
	next   []float64

	// Max-flow workspace for NodeConnectivityS.
	flow flowWS
}

// NewScratch returns an empty workspace.
func NewScratch() *Scratch { return &Scratch{} }

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// sizeSweep ensures the shortest-path temporaries cover n nodes.
func (s *Scratch) sizeSweep(n int) {
	s.dist = growInts(s.dist, n)
	s.sigma = growFloats(s.sigma, n)
	s.delta = growFloats(s.delta, n)
	s.betw = growFloats(s.betw, n)
	if cap(s.queue) < n {
		s.queue = make([]int, 0, n)
	}
	if cap(s.preds) < n {
		preds := make([][]int, n)
		copy(preds, s.preds[:cap(s.preds)])
		s.preds = preds
	}
	s.preds = s.preds[:n]
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
	s.deg = growInts(s.deg, n)
	for i := range s.deg {
		s.deg[i] = 0
	}
	for _, p := range g.und {
		s.deg[int(p>>32)]++
		s.deg[int(p&0xffffffff)]++
	}
	s.arenaU = growInts(s.arenaU, 2*len(g.und))
	if cap(s.und) < n {
		s.und = make([][]int, n)
	}
	s.und = s.und[:n]
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
	s.deg = growInts(s.deg, n)
	for i := range s.deg {
		s.deg[i] = 0
	}
	for _, p := range g.dir {
		s.deg[int(p>>32)]++
	}
	s.arenaD = growInts(s.arenaD, len(g.dir))
	if cap(s.dir) < n {
		s.dir = make([][]int, n)
	}
	s.dir = s.dir[:n]
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

// DegreeCentralityInto writes every node's undirected simple degree
// normalized by n-1 (the NetworkX convention; all zero below two nodes)
// into dst, resized as needed, and returns it.
func (g *Digraph) DegreeCentralityInto(dst []float64, s *Scratch) []float64 {
	adj := s.undirected(g)
	n := len(adj)
	dst = growFloats(dst, n)
	zeroFloats(dst)
	if n < 2 {
		return dst
	}
	norm := 1 / float64(n-1)
	for u := range adj {
		dst[u] = float64(len(adj[u])) * norm
	}
	return dst
}

// PathStats is everything the feature extractor reads off shortest paths
// in the undirected simple projection: the diameter, the mean number of
// nodes within k hops, and the node-order means of Wasserman–Faust
// closeness and Brandes betweenness centrality. Mean Goh load centrality
// is not among them: on every graph it equals mean betweenness (both are
// Σ (d − 1) over ordered reachable pairs under one normalisation), so the
// extractor serves f19 as a copy of f18. PathStatsS computes it with one
// BFS per node that is not a leaf of its hub: on a watched client's star
// that is a handful of BFSes, however many call-back hosts it holds.
type PathStats struct {
	Diameter int
	WithinK  float64
	// Node-order means of the two centrality vectors.
	Closeness, Betweenness float64
}

// PathStatsS computes PathStats with one Brandes BFS per source, except
// for the degree-1 neighbours (leaves) of one hub, which reuse the hub's
// BFS. The hub is the node of degree ≥ 2 with the most leaf neighbours,
// lowest id on ties; on a watched WCG it is the victim, and most nodes are
// its call-back leaves. A leaf L's BFS is the hub h's shifted by one hop,
// so L's distance aggregates follow from h's integers, its dependencies
// equal h's bit for bit everywhere but at h, and δ_L(h) re-sums h's
// first-level terms without L's (DESIGN.md §8). Every float comes out of
// the expression the test oracle uses (plain_ref_test.go), over the same
// operands in the same order, so the fields are bit-identical to
// Diameter(), AvgNodesWithinK(k), Mean(ClosenessCentrality()) and
// Mean(BetweennessCentrality()).
func (g *Digraph) PathStatsS(k int, s *Scratch) PathStats {
	adj := s.undirected(g)
	n := len(adj)
	var ps PathStats
	if n == 0 {
		return ps
	}
	s.sizeSweep(n)
	zeroFloats(s.betw)
	hub := leafHub(adj)
	var hubSum, hubReach, hubEcc, hubIn, hubNear int
	if hub >= 0 {
		s.bfsPaths(adj, hub)
		hubSum, hubReach, hubEcc, hubIn = s.distAggregates(k)
		_, _, _, hubNear = s.distAggregates(k - 1)
		s.keepHubDependencies()
	}
	within := 0
	closeness := 0.0
	for src := range adj {
		var sum, reach, ecc, in int
		switch {
		case src == hub:
			sum, reach, ecc, in = hubSum, hubReach, hubEcc, hubIn
			s.addHubDependencies()
		case hub >= 0 && len(adj[src]) == 1 && adj[src][0] == hub:
			// d_L(h) = 1 and d_L(w) = d_h(w) + 1 for every other w.
			sum, reach, ecc, in = hubSum+hubReach-1, hubReach, hubEcc+1, hubNear
			if k >= 2 {
				in-- // L itself, at d_h = 1
			}
			if k >= 1 {
				in++ // h, at d_L = 1
			}
			s.addHubDependencies()
			s.betw[hub] += s.leafHubDependency(src)
		default:
			s.bfsPaths(adj, src)
			sum, reach, ecc, in = s.distAggregates(k)
			if n >= 3 {
				s.accumulateDependencies()
			}
		}
		within += in
		if sum > 0 {
			if ecc > ps.Diameter {
				ps.Diameter = ecc
			}
			frac := float64(reach) / float64(n-1)
			closeness += frac * float64(reach) / float64(sum)
		}
	}
	ps.WithinK = float64(within) / float64(n)
	ps.Closeness = closeness / float64(n)
	if n >= 3 {
		norm := 1 / (float64(n-1) * float64(n-2))
		for i := range s.betw {
			s.betw[i] *= norm
		}
		ps.Betweenness = Mean(s.betw)
	}
	return ps
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

// distAggregates reads the BFS bfsPaths last ran, its source excluded:
// the distance sum, the number of nodes reached, the eccentricity and how
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

// keepHubDependencies is accumulateDependencies for the hub's run: rather
// than adding into s.betw, it keeps the nonzero dependencies and the
// hub's first-level terms for addHubDependencies and leafHubDependency.
func (s *Scratch) keepHubDependencies() {
	sigma, delta := s.sigma, s.delta
	s.hubKids, s.hubTerms = s.hubKids[:0], s.hubTerms[:0]
	for i := len(s.queue) - 1; i > 0; i-- {
		w := s.queue[i]
		for _, v := range s.preds[w] {
			delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
		}
		if s.dist[w] == 1 {
			// σ_h = σ_w = 1: the term w adds to δ_h is exactly 1 + δ_h(w),
			// whether or not the multiply-add above is fused.
			s.hubKids = append(s.hubKids, w)
			s.hubTerms = append(s.hubTerms, 1+delta[w])
		}
	}
	s.hubNZ, s.hubDelta = s.hubNZ[:0], s.hubDelta[:0]
	for _, w := range s.queue[1:] {
		if delta[w] != 0 {
			s.hubNZ = append(s.hubNZ, w)
			s.hubDelta = append(s.hubDelta, delta[w])
		}
	}
}

// addHubDependencies adds the hub's kept dependencies into s.betw. Every
// slot it skips would have received +0, which is exact.
func (s *Scratch) addHubDependencies() {
	for i, w := range s.hubNZ {
		s.betw[w] += s.hubDelta[i]
	}
}

// leafHubDependency is δ_L(h) for the hub's leaf L: the hub's first-level
// terms in the reverse visit order L's own backward pass adds them in,
// L's term left out.
func (s *Scratch) leafHubDependency(leaf int) float64 {
	dep := 0.0
	for i, c := range s.hubKids {
		if c != leaf {
			dep += s.hubTerms[i]
		}
	}
	return dep
}

// bfsPaths runs the forward half of Brandes' algorithm from src: BFS
// distances (-1 unreachable), shortest-path counts and predecessor lists,
// with the visit order left in s.queue and the dependencies zeroed for
// the backward half.
func (s *Scratch) bfsPaths(adj [][]int, src int) {
	s.bfsRuns++
	dist, sigma, preds := s.dist, s.sigma, s.preds
	for i := range dist {
		sigma[i] = 0
		dist[i] = -1
		s.delta[i] = 0
		preds[i] = preds[i][:0]
	}
	sigma[src] = 1
	dist[src] = 0
	queue := s.queue[:0]
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
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
	s.queue = queue
}

// accumulateDependencies is the backward half of Brandes' algorithm:
// nodes leave in reverse visit order and each adds its dependency on the
// source bfsPaths last ran from (queue[0], itself excluded) into s.betw.
func (s *Scratch) accumulateDependencies() {
	sigma, delta := s.sigma, s.delta
	for i := len(s.queue) - 1; i > 0; i-- {
		w := s.queue[i]
		for _, v := range s.preds[w] {
			delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
		}
		s.betw[w] += delta[w]
	}
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
	s.bfsPaths(adj, 0)
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
	s.marks = growBools(s.marks, n)
	for i := range s.marks {
		s.marks[i] = false
	}
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
	s.marks2 = growBools(s.marks2, n)
	for i := range s.marks2 {
		s.marks2[i] = false
	}
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

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// AvgClusteringCoefficientS is the mean local clustering coefficient
// (f21) of the undirected simple projection: per node, the fraction of
// pairs of its neighbours that are themselves adjacent (zero below
// degree 2), accumulated in node order.
func (g *Digraph) AvgClusteringCoefficientS(s *Scratch) float64 {
	adj := s.undirected(g)
	n := len(adj)
	if n == 0 {
		return 0
	}
	s.marks = growBools(s.marks, n)
	for i := range s.marks {
		s.marks[i] = false
	}
	sum := 0.0
	for u := range adj {
		k := len(adj[u])
		if k < 2 {
			continue
		}
		for _, v := range adj[u] {
			s.marks[v] = true
		}
		links := 0
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
		sum += 2 * float64(links) / (float64(k) * float64(k-1))
	}
	return sum / float64(n)
}

// AvgNeighborDegreesInto writes, for each node, the mean undirected simple
// degree of its neighbours (f22; zero for isolated nodes) into dst and
// returns it.
func (g *Digraph) AvgNeighborDegreesInto(dst []float64, s *Scratch) []float64 {
	adj := s.undirected(g)
	dst = growFloats(dst, len(adj))
	zeroFloats(dst)
	for u := range adj {
		if len(adj[u]) == 0 {
			continue
		}
		sum := 0
		for _, v := range adj[u] {
			sum += len(adj[v])
		}
		dst[u] = float64(sum) / float64(len(adj[u]))
	}
	return dst
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
	s.fsum = growFloats(s.fsum, maxDeg+1)
	zeroFloats(s.fsum)
	s.fcnt = growInts(s.fcnt, maxDeg+1)
	for i := range s.fcnt {
		s.fcnt[i] = 0
	}
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

// PageRankInto writes PageRank with damping factor d over the directed
// simple projection into dst and returns it: power iteration for up to
// iters rounds, stopping early when the L1 change drops below tol, with
// dangling mass redistributed uniformly. The projection and the second
// iteration vector live in the scratch.
func (g *Digraph) PageRankInto(dst []float64, s *Scratch, d float64, iters int, tol float64) []float64 {
	adj := s.directed(g)
	n := len(adj)
	if n == 0 {
		return dst[:0]
	}
	dst = growFloats(dst, n)
	s.next = growFloats(s.next, n)
	rank, next := dst, s.next
	inv := 1 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	swapped := false
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
		swapped = !swapped
		if diff < tol {
			break
		}
	}
	if swapped {
		// The final ranks landed in the scratch buffer; copy them into
		// the caller-owned dst (scratch slices must not escape).
		copy(dst, rank)
	}
	return dst
}
