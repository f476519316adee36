package graph

// Topology keeps the integers behind the topology feature slots of one
// growing graph: each node's (Σ distance, reach), degree, neighbour-degree
// sum and links among its neighbours, and the diameter, within-k count,
// betweenness sum and node connectivity. Every float slot is a function of
// these integers, computed in one place, fold, in node order; Recompute
// fills the integers with the graph kernels and Update moves them for
// the commonest structural change of a watched client's graph — a new
// call-back host, which joins the undirected simple projection as a
// leaf — in O(n) instead of re-running the kernels (DESIGN.md §8). Both
// end in fold, so an update is bit-identical to a recompute by
// construction.
//
// The zero value is empty; Recompute fills it. The state is the
// caller's, one per graph it follows; the Scratch passed in is used only
// for temporaries, so one may serve many Topologies. A Topology is not
// safe for concurrent use.
type Topology struct {
	nodes []nodeStat // per node, in node order

	k     int // the within-k radius
	m     int // edges of the graph folded in so far
	pairs int // undirected simple pairs of the graph it describes

	// Integer totals over sources: the diameter, how many ordered
	// pairs lie within k hops, the betweenness sum Σ(d − 1), and the
	// node connectivity.
	diameter, within, excess, kappa int

	// row is the node whose BFS distances nodes[].dist holds, or -1.
	row int
}

// nodeStat is what Topology keeps per node.
type nodeStat struct {
	sum, reach int // Σ distance to the nodes it reaches, and their count
	deg, nbr   int // simple degree, and the sum of its neighbours' degrees
	links      int // edges among its neighbours
	dist       int // distance from Topology.row (-1: unreachable)
}

// TopologyStats are the topology slots a Topology serves, all on the
// undirected simple projection; each one's test oracle is a plain
// kernel in plain_ref_test.go.
type TopologyStats struct {
	Diameter int
	// WithinK is the mean number of other nodes within k hops.
	WithinK float64
	// Closeness is the node-order mean of Wasserman–Faust closeness.
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
	// Connectivity is the node connectivity κ.
	Connectivity int
	// Clustering, NeighborDegree and DegreeConnectivity are the means of
	// the local clustering coefficient, of each node's mean neighbour
	// degree, and of NetworkX's average degree connectivity over the
	// degrees present.
	Clustering         float64
	NeighborDegree     float64
	DegreeConnectivity float64
}

// Change classifies what Update found between the graph a Topology
// described and the graph it was handed.
type Change int

const (
	// Unchanged: the undirected simple projection did not move (only
	// parallel edges, self-loops or a first reverse-direction edge on an
	// existing pair arrived), so no slot changes.
	Unchanged Change = iota
	// NewLeaf: one new node joined the projection by one edge to an
	// existing node; the slots were updated from the kept integers.
	NewLeaf
	// Recomputed: anything else; the slots were derived from scratch.
	Recomputed
)

// Recompute derives t's integers from g with the graph kernels, with
// within-k radius k, and folds the slots. An empty graph has all-zero
// slots.
func (t *Topology) Recompute(g *Digraph, k int, s *Scratch) TopologyStats {
	*t = Topology{nodes: grow(t.nodes, g.N()), k: k, m: g.M(), pairs: g.UndirectedM(), row: -1}
	if len(t.nodes) == 0 {
		return TopologyStats{} // fold divides by n
	}
	g.pathStats(k, s, t)
	g.neighborhoods(s, t)
	t.kappa = g.nodeConnectivity(s)
	return t.fold(s)
}

// Update brings t up to date with g, which must be the graph t last
// described (by Recompute or Update) grown by AddNode and AddEdge only.
// It classifies the change from g's order, its undirected pair count and
// the edges appended since, and returns the new slots unless the change
// is Unchanged.
func (t *Topology) Update(g *Digraph, s *Scratch) (TopologyStats, Change) {
	old := len(t.nodes)
	added := g.edges[t.m:]
	t.m = g.M()
	n, pairs := g.N(), g.UndirectedM()
	if n == old && pairs == t.pairs {
		return TopologyStats{}, Unchanged
	}
	if n == old+1 && pairs == t.pairs+1 {
		// The one new pair joins the new node to an existing one if
		// any new edge does.
		for _, p := range added {
			u, v := int(p>>32), int(p&0xffffffff)
			if u == old && v != old {
				return t.addLeaf(g, v, s), NewLeaf
			}
			if v == old && u != old {
				return t.addLeaf(g, u, s), NewLeaf
			}
		}
	}
	return t.Recompute(g, t.k, s), Recomputed
}

// addLeaf updates t for the new node L = len(t.nodes), whose only
// neighbour is a, and folds the slots. L changes no older distance and
// d(L, v) = d(a, v) + 1 for every v that a reaches, so from a's distance
// row: each node of a's component gains one reached node at d(a, v) + 1;
// L's (Σ distance, reach) is (Σd_a + reach_a + 1, reach_a + 1); the
// betweenness sum Σ(d − 1) moves by 2·Σd_a; the diameter becomes
// max(D, ecc_a + 1); within-k gains the pairs (v, L) with d(a, v) + 1 ≤ k
// in both directions; a's degree and its neighbours' neighbour-degree
// sums move by one; no links among neighbours change; and κ is 1 exactly
// when L reaches every other node.
func (t *Topology) addLeaf(g *Digraph, a int, s *Scratch) TopologyStats {
	leaf := len(t.nodes)
	if t.row != a {
		// A BFS of the grown graph: L changes no older distance.
		adj := s.undirected(g)
		s.sizeSweep(len(adj))
		s.bfs(adj, a)
		for v := range t.nodes {
			t.nodes[v].dist = s.dist[v]
		}
		t.row = a
	}
	// Over a's component, a included: Σd_a, reach_a + 1, ecc_a, and how
	// many lie within k hops of L.
	sum, reach, ecc, near := 0, 0, 0, 0
	for v := range t.nodes {
		p := &t.nodes[v]
		d := p.dist
		if d < 0 {
			continue
		}
		p.sum += d + 1
		p.reach++
		if d == 1 {
			p.nbr++ // a neighbour of a, whose degree rises
		}
		sum += d
		reach++
		ecc = max(ecc, d)
		if d+1 <= t.k {
			near++
		}
	}
	t.nodes[a].deg++
	t.nodes[a].nbr++ // L's degree, 1
	if len(t.nodes) == cap(t.nodes) {
		t.nodes = append(make([]nodeStat, 0, max(2*cap(t.nodes), minCap)), t.nodes...)
	}
	t.nodes = append(t.nodes, nodeStat{
		sum: sum + reach, reach: reach,
		deg: 1, nbr: t.nodes[a].deg,
		dist: 1,
	})
	t.pairs++
	t.diameter = max(t.diameter, ecc+1)
	t.within += 2 * near
	t.excess += 2 * sum
	t.kappa = 0
	if reach == leaf {
		t.kappa = 1 // connected, and L has degree 1
	}
	return t.fold(s)
}

// fold computes every float slot from t's integers, summing in node
// order; the graph has at least one node. Closeness is Wasserman–Faust:
// the share of the other nodes a source reaches times the reciprocal of
// their mean distance. Degree connectivity combines its per-degree
// buckets in ascending degree order, so the low bits are deterministic.
func (t *Topology) fold(s *Scratch) TopologyStats {
	n := len(t.nodes)
	s.degrees = grow(s.degrees, n)
	clear(s.degrees)
	closeness, clustering, nbr := 0.0, 0.0, 0.0
	maxDeg := 0
	for _, p := range t.nodes {
		if p.sum > 0 {
			frac := float64(p.reach) / float64(n-1)
			closeness += frac * float64(p.reach) / float64(p.sum)
		}
		if p.deg >= 2 {
			clustering += 2 * float64(p.links) / (float64(p.deg) * float64(p.deg-1))
		}
		if p.deg > 0 {
			mean := float64(p.nbr) / float64(p.deg)
			nbr += mean
			s.degrees[p.deg].sum += mean
			s.degrees[p.deg].count++
		}
		maxDeg = max(maxDeg, p.deg)
	}
	degrees, degConn := 0, 0.0
	for k := 1; k <= maxDeg; k++ {
		if b := s.degrees[k]; b.count > 0 {
			degConn += b.sum / float64(b.count)
			degrees++
		}
	}
	st := TopologyStats{
		Diameter:       t.diameter,
		WithinK:        float64(t.within) / float64(n),
		Closeness:      closeness / float64(n),
		Connectivity:   t.kappa,
		Clustering:     clustering / float64(n),
		NeighborDegree: nbr / float64(n),
	}
	if n >= 3 {
		st.Betweenness = float64(t.excess) / float64(n*(n-1)*(n-2))
	}
	if degrees > 0 {
		st.DegreeConnectivity = degConn / float64(degrees)
	}
	return st
}
