package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// pathGraph returns the undirected-style path 0-1-2-...-(n-1) encoded with
// forward directed edges.
func pathGraph(n int) *Digraph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
	return g
}

func starGraph(leaves int) *Digraph {
	g := New(leaves + 1)
	for i := 1; i <= leaves; i++ {
		if err := g.AddEdge(0, i); err != nil {
			panic(err)
		}
	}
	return g
}

func completeGraph(n int) *Digraph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if err := g.AddEdge(i, j); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func cycleGraph(n int) *Digraph {
	g := New(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			panic(err)
		}
	}
	return g
}

func randomGraph(n, m int, rng *rand.Rand) *Digraph {
	g := New(n)
	for i := 0; i < m; i++ {
		_ = g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	if g.Density() != 0 || g.Diameter() != 0 || g.Reciprocity() != 0 {
		t.Fatal("empty graph metrics must be zero")
	}
	if g.PageRank(0.85, 50, 1e-9) != nil {
		t.Fatal("empty graph pagerank must be nil")
	}
	if got := g.AvgClusteringCoefficient(); got != 0 {
		t.Fatalf("empty clustering = %v", got)
	}
}

func TestSingleNode(t *testing.T) {
	g := New(1)
	if !g.IsConnected() {
		t.Fatal("single node must be connected")
	}
	if g.NodeConnectivity() != 0 {
		t.Fatal("single node connectivity must be 0")
	}
	pr := g.PageRank(0.85, 50, 1e-9)
	if len(pr) != 1 || !almostEq(pr[0], 1) {
		t.Fatalf("single node pagerank = %v", pr)
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 2); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("expected out-of-range error for negative node")
	}
	if g.M() != 0 {
		t.Fatal("failed AddEdge must not change M")
	}
}

func TestDegreesAndVolume(t *testing.T) {
	g := New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(0, 1) // parallel edge
	_ = g.AddEdge(1, 2)
	if out0 := len(g.outLists()[0]); out0 != 2 || g.Degree(1) != 3 {
		t.Fatalf("degrees wrong: out0=%d deg1=%d", out0, g.Degree(1))
	}
	if g.Volume() != 6 {
		t.Fatalf("volume = %d, want 6", g.Volume())
	}
	if !almostEq(g.AvgInDegree(), 1) || !almostEq(g.AvgOutDegree(), 1) {
		t.Fatalf("avg degrees: in=%v out=%v", g.AvgInDegree(), g.AvgOutDegree())
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree = %d, want 3", g.MaxDegree())
	}
}

// checkProjections holds the graph's maintained state to a recount from
// its edge log: both sorted pair sets, SimpleM, Reciprocal and every
// node's degree.
func checkProjections(t *testing.T, g *Digraph) {
	t.Helper()
	deg := make([]int, g.N())
	set := make(map[uint64]bool)
	var dir, und []uint64
	for _, p := range g.edges {
		u, v := int(p>>32), int(p&0xffffffff)
		deg[u]++
		deg[v]++
		if u != v {
			set[p] = true
			dir = append(dir, p)
			und = append(und, pair(min(u, v), max(u, v)))
		}
	}
	slices.Sort(dir)
	dir = slices.Compact(dir)
	slices.Sort(und)
	und = slices.Compact(und)
	if !slices.Equal(g.dir, dir) || g.SimpleM() != len(dir) {
		t.Fatalf("directed set %x (SimpleM %d), edge log gives %x", g.dir, g.SimpleM(), dir)
	}
	if !slices.Equal(g.und, und) {
		t.Fatalf("undirected set %x, edge log gives %x", g.und, und)
	}
	recip := 0
	for p := range set {
		if set[p<<32|p>>32] {
			recip++
		}
	}
	if g.Reciprocal() != recip {
		t.Fatalf("Reciprocal() = %d, brute force gives %d", g.Reciprocal(), recip)
	}
	for u, d := range deg {
		if g.Degree(u) != d {
			t.Fatalf("Degree(%d) = %d, edge log gives %d", u, g.Degree(u), d)
		}
	}
}

// projectionTracker appends to a graph one step at a time, checking after
// each step that the projections match the edge log and that Version
// moved exactly on AddNode and on the first edge of an ordered pair.
type projectionTracker struct {
	g    *Digraph
	seen map[uint64]bool // ordered pairs of distinct nodes added so far
}

func newProjectionTracker() *projectionTracker {
	return &projectionTracker{g: New(0), seen: make(map[uint64]bool)}
}

func (tr *projectionTracker) addNode(t *testing.T) {
	t.Helper()
	v := tr.g.Version()
	tr.g.AddNode()
	if got := tr.g.Version(); got != v+1 {
		t.Fatalf("AddNode moved Version %d -> %d", v, got)
	}
	checkProjections(t, tr.g)
}

func (tr *projectionTracker) addEdge(t *testing.T, u, v int) {
	t.Helper()
	want := tr.g.Version()
	if err := tr.g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
	if p := pair(u, v); u != v && !tr.seen[p] {
		tr.seen[p] = true
		want++
	}
	if got := tr.g.Version(); got != want {
		t.Fatalf("AddEdge(%d,%d) moved Version to %d, want %d", u, v, got, want)
	}
	checkProjections(t, tr.g)
}

// replay appends g's nodes, then g's edge log, one step at a time.
func (tr *projectionTracker) replay(t *testing.T, g *Digraph) {
	t.Helper()
	for i := 0; i < g.N(); i++ {
		tr.addNode(t)
	}
	for _, p := range g.edges {
		tr.addEdge(t, int(p>>32), int(p&0xffffffff))
	}
}

// TestSimpleProjectionTracksAppends holds the sorted pair sets the graph
// keeps as edges arrive to a recount from the edge log after every step:
// on seeded random AddNode/AddEdge sequences with parallel edges and
// self-loops, and replayed on the watched chain client and the
// 4 097-node star.
func TestSimpleProjectionTracksAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 40; trial++ {
		tr := newProjectionTracker()
		tr.addNode(t)
		for step := 0; step < 150; step++ {
			n := tr.g.N()
			switch r := rng.Intn(10); {
			case r == 0:
				tr.addNode(t)
			case r == 1:
				u := rng.Intn(n)
				tr.addEdge(t, u, u) // self-loop
			case r == 2 && tr.g.M() > 0:
				p := tr.g.edges[rng.Intn(tr.g.M())]
				tr.addEdge(t, int(p>>32), int(p&0xffffffff)) // parallel edge
			default:
				tr.addEdge(t, rng.Intn(n), rng.Intn(n))
			}
		}
	}
	newProjectionTracker().replay(t, chainClientGraph(79))
	newProjectionTracker().replay(t, starGraph(4096))
}

func TestDensity(t *testing.T) {
	// Complete directed graph on 4 nodes has density 1.
	if d := completeGraph(4).Density(); !almostEq(d, 1) {
		t.Fatalf("complete density = %v", d)
	}
	// Path 0->1->2: 2 simple edges / (3*2).
	if d := pathGraph(3).Density(); !almostEq(d, 2.0/6.0) {
		t.Fatalf("path density = %v", d)
	}
	// Parallel edges must not inflate density.
	g := New(2)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(0, 1)
	if d := g.Density(); !almostEq(d, 0.5) {
		t.Fatalf("parallel-edge density = %v, want 0.5", d)
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		name string
		g    *Digraph
		want int
	}{
		{"path5", pathGraph(5), 4},
		{"star6", starGraph(5), 2},
		{"complete4", completeGraph(4), 1},
		{"cycle6", cycleGraph(6), 3},
		{"single", New(1), 0},
	}
	for _, tc := range cases {
		if got := tc.g.Diameter(); got != tc.want {
			t.Errorf("%s diameter = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New(6) // path of 3 plus path of 2 plus isolated node
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(3, 4)
	if got := g.Diameter(); got != 2 {
		t.Fatalf("disconnected diameter = %d, want 2 (largest component)", got)
	}
}

func TestReciprocity(t *testing.T) {
	g := New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 0)
	_ = g.AddEdge(1, 2)
	// Simple edges: (0,1),(1,0),(1,2); 2 of 3 reciprocated.
	if r := g.Reciprocity(); !almostEq(r, 2.0/3.0) {
		t.Fatalf("reciprocity = %v, want 2/3", r)
	}
	if r := pathGraph(4).Reciprocity(); r != 0 {
		t.Fatalf("path reciprocity = %v, want 0", r)
	}
	if r := completeGraph(3).Reciprocity(); !almostEq(r, 1) {
		t.Fatalf("complete reciprocity = %v, want 1", r)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(7)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 0)
	_ = g.AddEdge(3, 4)
	comps := g.ConnectedComponents()
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Fatalf("component sizes = %d,%d want 3,2", len(comps[0]), len(comps[1]))
	}
	if g.IsConnected() {
		t.Fatal("graph must not be connected")
	}
	if !cycleGraph(4).IsConnected() {
		t.Fatal("cycle must be connected")
	}
}

func TestDegreeCentrality(t *testing.T) {
	cent := starGraph(4).DegreeCentrality()
	if !almostEq(cent[0], 1) {
		t.Fatalf("star hub centrality = %v, want 1", cent[0])
	}
	for i := 1; i < 5; i++ {
		if !almostEq(cent[i], 0.25) {
			t.Fatalf("star leaf centrality = %v, want 0.25", cent[i])
		}
	}
}

func TestClosenessCentrality(t *testing.T) {
	// Path 0-1-2: closeness(1) = 2/(1+1) = 1; closeness(0) = 2/3.
	cent := pathGraph(3).ClosenessCentrality()
	if !almostEq(cent[1], 1) {
		t.Fatalf("center closeness = %v, want 1", cent[1])
	}
	if !almostEq(cent[0], 2.0/3.0) {
		t.Fatalf("end closeness = %v, want 2/3", cent[0])
	}
	// Disconnected: isolated node scores 0, pair scores scaled by reach.
	g := New(3)
	_ = g.AddEdge(0, 1)
	cent = g.ClosenessCentrality()
	if cent[2] != 0 {
		t.Fatalf("isolated closeness = %v, want 0", cent[2])
	}
	if !almostEq(cent[0], 0.5) { // (1/2)*(1/1)
		t.Fatalf("pair closeness = %v, want 0.5", cent[0])
	}
}

func TestBetweennessCentrality(t *testing.T) {
	// Path 0-1-2-3-4: betweenness of middle node 2 is 4 pairs /( (4*3)/2 )=...
	// Raw pair count through node 2: (0,3),(0,4),(1,3),(1,4) = 4 of C(4,2)=6.
	cent := pathGraph(5).BetweennessCentrality()
	if !almostEq(cent[2], 4.0/6.0) {
		t.Fatalf("middle betweenness = %v, want 4/6", cent[2])
	}
	if cent[0] != 0 || cent[4] != 0 {
		t.Fatalf("endpoint betweenness nonzero: %v %v", cent[0], cent[4])
	}
	// Star: hub carries all C(n-1,2) pairs -> normalized 1.
	cent = starGraph(5).BetweennessCentrality()
	if !almostEq(cent[0], 1) {
		t.Fatalf("star hub betweenness = %v, want 1", cent[0])
	}
}

func TestLoadCentralityMatchesBetweennessOnTrees(t *testing.T) {
	// On trees shortest paths are unique, so load == betweenness exactly.
	for _, g := range []*Digraph{pathGraph(6), starGraph(5)} {
		bc := g.BetweennessCentrality()
		lc := g.LoadCentrality()
		for i := range bc {
			if !almostEq(bc[i], lc[i]) {
				t.Fatalf("node %d: load %v != betweenness %v", i, lc[i], bc[i])
			}
		}
	}
}

func TestPageRank(t *testing.T) {
	pr := cycleGraph(5).PageRank(0.85, 100, 1e-12)
	for _, v := range pr {
		if !almostEq(v, 0.2) {
			t.Fatalf("cycle pagerank = %v, want uniform 0.2", pr)
		}
	}
	// Star directed outward: leaves absorb rank; hub keeps only base.
	pr = starGraph(4).PageRank(0.85, 100, 1e-12)
	if pr[0] >= pr[1] {
		t.Fatalf("outward star: hub rank %v must be below leaf rank %v", pr[0], pr[1])
	}
	sum := 0.0
	for _, v := range pr {
		sum += v
	}
	if !almostEq(sum, 1) {
		t.Fatalf("pagerank sum = %v, want 1", sum)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle: every node clusters perfectly.
	if c := completeGraph(3).AvgClusteringCoefficient(); !almostEq(c, 1) {
		t.Fatalf("triangle clustering = %v", c)
	}
	if c := pathGraph(5).AvgClusteringCoefficient(); c != 0 {
		t.Fatalf("path clustering = %v, want 0", c)
	}
	// Triangle plus pendant: node 0 has neighbors {1,2,3}, one linked pair.
	g := completeGraph(3)
	p := g.AddNode()
	_ = g.AddEdge(0, p)
	cs := g.ClusteringCoefficients()
	if !almostEq(cs[0], 1.0/3.0) {
		t.Fatalf("hub clustering = %v, want 1/3", cs[0])
	}
	if !almostEq(cs[1], 1) || cs[3] != 0 {
		t.Fatalf("clustering = %v", cs)
	}
}

func TestAvgNeighborDegrees(t *testing.T) {
	vals := starGraph(3).AvgNeighborDegrees()
	if !almostEq(vals[0], 1) { // hub's neighbors are leaves of degree 1
		t.Fatalf("hub neighbor degree = %v, want 1", vals[0])
	}
	if !almostEq(vals[1], 3) { // leaf's single neighbor is the hub, degree 3
		t.Fatalf("leaf neighbor degree = %v, want 3", vals[1])
	}
}

func TestAverageDegreeConnectivity(t *testing.T) {
	m := starGraph(3).AverageDegreeConnectivity()
	if !almostEq(m[3], 1) || !almostEq(m[1], 3) {
		t.Fatalf("degree connectivity = %v", m)
	}
	s := starGraph(3).AvgDegreeConnectivity()
	if !almostEq(s, 2) {
		t.Fatalf("scalar degree connectivity = %v, want 2", s)
	}
}

func TestNodesWithinK(t *testing.T) {
	g := pathGraph(5)
	counts := g.NodesWithinK(2)
	want := []int{2, 3, 4, 3, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("NodesWithinK(2)[%d] = %d, want %d (all=%v)", i, counts[i], w, counts)
		}
	}
	if avg := g.AvgNodesWithinK(2); !almostEq(avg, 14.0/5.0) {
		t.Fatalf("avg within 2 = %v", avg)
	}
}

func TestNodeConnectivity(t *testing.T) {
	cases := []struct {
		name string
		g    *Digraph
		want int
	}{
		{"path4", pathGraph(4), 1},
		{"cycle5", cycleGraph(5), 2},
		{"complete4", completeGraph(4), 3},
		{"star5", starGraph(4), 1},
		{"pair", pathGraph(2), 1},
	}
	for _, tc := range cases {
		if got := tc.g.NodeConnectivity(); got != tc.want {
			t.Errorf("%s connectivity = %d, want %d", tc.name, got, tc.want)
		}
	}
	// Disconnected graph has connectivity 0.
	g := New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(2, 3)
	if got := g.NodeConnectivity(); got != 0 {
		t.Fatalf("disconnected connectivity = %d, want 0", got)
	}
}

func TestNodeConnectivityCompleteBipartite(t *testing.T) {
	// K_{2,3}: connectivity = 2.
	g := New(5)
	for _, u := range []int{0, 1} {
		for _, v := range []int{2, 3, 4} {
			_ = g.AddEdge(u, v)
		}
	}
	if got := g.NodeConnectivity(); got != 2 {
		t.Fatalf("K23 connectivity = %d, want 2", got)
	}
}

// Property-based checks over random multigraphs.

func TestRandomGraphInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		m := r.Intn(4 * n)
		g := randomGraph(n, m, rng)
		if d := g.Density(); d < 0 || d > 1 {
			t.Logf("density out of range: %v", d)
			return false
		}
		if rec := g.Reciprocity(); rec < 0 || rec > 1 {
			t.Logf("reciprocity out of range: %v", rec)
			return false
		}
		if dia := g.Diameter(); dia < 0 || dia > n-1 {
			t.Logf("diameter out of range: %v", dia)
			return false
		}
		pr := g.PageRank(0.85, 100, 1e-10)
		sum := 0.0
		for _, v := range pr {
			if v < 0 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Logf("pagerank sum = %v", sum)
			return false
		}
		for _, v := range g.BetweennessCentrality() {
			if v < -1e-12 || v > 1+1e-9 {
				t.Logf("betweenness out of range: %v", v)
				return false
			}
		}
		for _, v := range g.ClosenessCentrality() {
			if v < 0 || v > 1+1e-9 {
				t.Logf("closeness out of range: %v", v)
				return false
			}
		}
		for _, c := range g.ClusteringCoefficients() {
			if c < 0 || c > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeConnectivityUpperBound(t *testing.T) {
	// Connectivity never exceeds minimum degree.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		g := randomGraph(n, n+r.Intn(2*n), r)
		if !g.IsConnected() {
			return g.NodeConnectivity() == 0
		}
		adj := g.undirectedSimple()
		minDeg := n
		for _, nbrs := range adj {
			if len(nbrs) < minDeg {
				minDeg = len(nbrs)
			}
		}
		return g.NodeConnectivity() <= minDeg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadVsBetweennessRandomTrees(t *testing.T) {
	// Random trees: unique shortest paths, so the two centralities agree.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		g := New(n)
		for v := 1; v < n; v++ {
			_ = g.AddEdge(r.Intn(v), v)
		}
		bc := g.BetweennessCentrality()
		lc := g.LoadCentrality()
		for i := range bc {
			if math.Abs(bc[i]-lc[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMeanBetweennessEqualsMeanLoad pins the identity behind features f18
// and f19 on every graph, not only trees. From each source s, Brandes'
// dependency and Goh's load both spread one unit over the d(s,t) − 1
// interior nodes of the shortest paths to each reachable t, and both
// share the 1/((n−1)(n−2)) normalisation, so both means are Σ (d − 1)
// over ordered reachable pairs divided by n(n−1)(n−2). Per node the two
// differ wherever shortest paths are not unique; the means agree up to
// floating-point rounding. Random multigraphs bring the self-loops,
// parallel edges, disconnected parts and tied shortest paths.
func TestMeanBetweennessEqualsMeanLoad(t *testing.T) {
	graphs := []*Digraph{pathGraph(6), starGraph(5), cycleGraph(7)}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 200; i++ {
		n := 3 + rng.Intn(10)
		g := New(n)
		for v := 1; v < n; v++ {
			_ = g.AddEdge(rng.Intn(v), v)
		}
		graphs = append(graphs, g)
	}
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(60)
		graphs = append(graphs, randomMultigraph(rng, n, rng.Intn(3*n+1)))
	}
	for i, g := range graphs {
		b, l := Mean(g.BetweennessCentrality()), Mean(g.LoadCentrality())
		if diff := math.Abs(b - l); diff > 1e-12*math.Max(math.Abs(b), math.Abs(l)) {
			t.Fatalf("graph %d (%d nodes): mean betweenness %v, mean load %v, relative gap %.3g",
				i, g.N(), b, l, diff/math.Max(math.Abs(b), math.Abs(l)))
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of nil must be 0")
	}
	if !almostEq(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("mean of 1,2,3 must be 2")
	}
}
