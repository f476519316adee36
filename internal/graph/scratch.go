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

	// Shortest-path sweep temporaries (pathStats; nodeConnectivity and
	// the extra.go measures borrow its BFS).
	dist  []int
	queue []int
	// bfsRuns counts bfs calls; tests read it to pin the sweep's work.
	bfsRuns int

	// Single-pass temporaries.
	marks   []bool
	marks2  []bool
	degrees []degreeBucket // Topology.fold's, indexed by degree

	// Max-flow workspace for nodeConnectivity.
	flow flowWS
}

// degreeBucket sums the mean neighbour degrees of the nodes of one degree.
type degreeBucket struct {
	sum   float64
	count int
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

// pathStats is the shortest-path sweep behind the diameter, within-k,
// closeness and betweenness slots. It runs one BFS per source, except for
// the degree-1 neighbours (leaves) of one hub, which reuse the hub's BFS.
// The hub is the node of degree ≥ 2 with the most leaf neighbours, lowest
// id on ties; on a watched WCG it is the victim, and most nodes are its
// call-back leaves. A leaf L's BFS is the hub h's shifted by one hop, so
// L's distance aggregates follow from h's integers in O(1): on a watched
// client's star the sweep is a handful of BFSes, however many call-back
// hosts it holds. It records every source's (Σ distance, reach) in
// t.nodes and adds the diameter, the within-k count and the betweenness
// sum Σ(d − 1) into t's totals, which Recompute has zeroed.
func (g *Digraph) pathStats(k int, s *Scratch, t *Topology) {
	adj := s.undirected(g)
	s.sizeSweep(len(adj))
	hub := leafHub(adj)
	var hubSum, hubReach, hubEcc, hubIn, hubNear int
	if hub >= 0 {
		s.bfs(adj, hub)
		hubSum, hubReach, hubEcc, hubIn = s.distAggregates(k)
		_, _, _, hubNear = s.distAggregates(k - 1)
	}
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
		t.nodes[src].sum, t.nodes[src].reach = sum, reach
		t.diameter = max(t.diameter, ecc)
		t.within += in
		t.excess += sum - reach
	}
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

// nodeConnectivity is the minimum number of nodes whose removal
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
func (g *Digraph) nodeConnectivity(s *Scratch) int {
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

// neighborhoods records, for every node of the undirected simple
// projection, its degree, the sum of its neighbours' degrees and the
// number of edges among its neighbours (zero below degree 2) in t.nodes.
func (g *Digraph) neighborhoods(s *Scratch, t *Topology) {
	adj := s.undirected(g)
	s.marks = grow(s.marks, len(adj))
	clear(s.marks)
	for u, vs := range adj {
		nbr, links := 0, 0
		for _, v := range vs {
			nbr += len(adj[v])
		}
		if len(vs) >= 2 {
			for _, v := range vs {
				s.marks[v] = true
			}
			for _, v := range vs {
				for _, w := range adj[v] {
					if w > v && s.marks[w] {
						links++
					}
				}
			}
			for _, v := range vs {
				s.marks[v] = false
			}
		}
		p := &t.nodes[u]
		p.deg, p.nbr, p.links = len(vs), nbr, links
	}
}
