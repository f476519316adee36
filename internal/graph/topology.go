package graph

// Topology keeps the per-node integers behind the topology feature slots
// of one growing graph, so that the commonest structural change of a
// watched client's graph — a new call-back host, which joins the
// undirected simple projection as a leaf — updates every slot in O(n)
// instead of re-running the shortest-path sweep and the neighbourhood
// kernels (DESIGN.md §8). The update re-sums every float slot in node
// order with the expressions of PathStatsS and the Scratch kernels, so
// its slots are bit-identical to a full recompute.
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

// TopologyStats are the topology slots a Topology serves: the sweep's
// PathStats, the node connectivity, and the means of the local
// clustering coefficient, the neighbour degree and the degree
// connectivity — the values of PathStatsS, NodeConnectivityS,
// AvgClusteringCoefficientS, AvgNeighborDegreeS and
// AvgDegreeConnectivityS, bit for bit.
type TopologyStats struct {
	PathStats
	Connectivity       int
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

// Recompute derives t and the slots of g from scratch, with within-k
// radius k: the Scratch kernels, recording their per-node integers.
func (t *Topology) Recompute(g *Digraph, k int, s *Scratch) TopologyStats {
	t.nodes = grow(t.nodes, g.N())
	t.k, t.m, t.pairs, t.row = k, g.M(), g.UndirectedM(), -1
	st := TopologyStats{PathStats: g.pathStats(k, s, t)}
	st.Connectivity = g.NodeConnectivityS(s)
	st.Clustering = g.clustering(s, t)
	st.NeighborDegree = g.neighborDegree(s, t)
	st.DegreeConnectivity = g.AvgDegreeConnectivityS(s)
	t.kappa = st.Connectivity
	return st
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

// fold re-sums every float slot from t's integers in node order, with
// the expressions of PathStatsS and the Scratch kernels. The graph has at
// least two nodes.
func (t *Topology) fold(s *Scratch) TopologyStats {
	n := len(t.nodes)
	s.fsum = grow(s.fsum, n)
	clear(s.fsum)
	s.fcnt = grow(s.fcnt, n)
	clear(s.fcnt)
	closeness, clustering, nbr := 0.0, 0.0, 0.0
	maxDeg := 0
	for _, p := range t.nodes {
		if p.sum > 0 {
			closeness += closenessTerm(p.sum, p.reach, n)
		}
		if p.deg >= 2 {
			clustering += clusteringTerm(p.links, p.deg)
		}
		if p.deg > 0 {
			mean := float64(p.nbr) / float64(p.deg)
			nbr += mean
			s.fsum[p.deg] += mean
			s.fcnt[p.deg]++
		}
		maxDeg = max(maxDeg, p.deg)
	}
	st := TopologyStats{
		PathStats: PathStats{
			Diameter:  t.diameter,
			WithinK:   float64(t.within) / float64(n),
			Closeness: closeness / float64(n),
		},
		Connectivity:       t.kappa,
		Clustering:         clustering / float64(n),
		NeighborDegree:     nbr / float64(n),
		DegreeConnectivity: s.degreeConnectivity(maxDeg),
	}
	if n >= 3 {
		st.Betweenness = float64(t.excess) / float64(n*(n-1)*(n-2))
	}
	return st
}
