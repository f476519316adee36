package ml

import (
	"math/rand"
	"slices"
)

// treeConfig controls CART growth.
type treeConfig struct {
	// maxFeatures is the number of candidate features sampled at each
	// split; 0 means all features.
	maxFeatures int
	// minSamplesLeaf is the minimum samples each side of a split must keep.
	minSamplesLeaf int
	// maxDepth bounds tree depth; 0 means unbounded.
	maxDepth int
}

// treeNode is one node of a CART tree while it grows. Leaves carry the
// class probability distribution of the training samples that reached
// them. Trained trees leave the package only as FlatForest slabs.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	probs     [numClasses]float64 // leaf only
	leaf      bool
}

func gini(counts [numClasses]int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

func makeLeaf(counts [numClasses]int, total int) *treeNode {
	n := &treeNode{leaf: true}
	if total > 0 {
		for c, cnt := range counts {
			n.probs[c] = float64(cnt) / float64(total)
		}
	}
	return n
}

// countNodes returns the number of nodes in the subtree rooted at n.
func countNodes(n *treeNode) int {
	if n.leaf {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// sortColumn copies feature f of every row of ds into vals and fills
// order with the row indices sorted by that value. Equal values come in
// no particular order: every scan of a sorted column reads a run of equal
// values as one and never cuts inside it.
func sortColumn(ds *Dataset, f int, vals []float64, order []int32) {
	for r, row := range ds.X {
		vals[r] = row[f]
		order[r] = int32(r)
	}
	slices.SortFunc(order, func(a, b int32) int {
		switch {
		case vals[a] < vals[b]:
			return -1
		case vals[b] < vals[a]:
			return 1
		}
		return 0
	})
}

// grower grows a forest's trees from one presort of its training set:
// newGrower sorts every feature column once, and a tree is a bootstrap
// multiplicity per row plus those sorted orders filtered to the rows it
// drew. A node owns the same stretch [lo, hi) of every feature's filtered
// order — its rows, sorted by that feature — so a candidate feature is
// one linear scan of its stretch, and a split stably partitions every
// stretch into its left rows, then its right rows, each still sorted.
//
// A split depends only on the node's multiset of (value, label): class
// counts accumulate across a run of equal values, and a threshold falls
// only between distinct ones. A row drawn k times therefore weighs k, and
// the trees are bit for bit the ones a per-node sort of the bootstrap
// sample grows (forest_ref_test.go keeps that grower as the oracle).
type grower struct {
	cfg   treeConfig
	rng   *rand.Rand
	n, nf int
	y     []int
	// vals is the design matrix column-major: row r's feature f sits at
	// vals[f*n+r]. sorted[f*n:(f+1)*n] lists every row in feature f's
	// value order.
	vals   []float64
	sorted []int32

	// Per-tree state, reused by every tree.
	w     []int32 // bootstrap multiplicity of each row
	m     int     // rows drawn at least once
	order []int32 // drawn rows in feature f's value order at order[f*m:(f+1)*m]
	left  []bool  // by row: the side of the split being partitioned
	spill []int32 // a stretch's right-hand rows while it is partitioned
	perm  []int   // the candidate features featureSample deals
}

// newGrower presorts ds for growing trees with cfg; rng drives the
// bootstrap draws and the per-split feature subsampling (nil uses every
// feature at every split).
func newGrower(ds *Dataset, cfg treeConfig, rng *rand.Rand) *grower {
	if cfg.minSamplesLeaf < 1 {
		cfg.minSamplesLeaf = 1
	}
	n, nf := ds.Len(), ds.NumFeatures()
	g := &grower{
		cfg: cfg, rng: rng, n: n, nf: nf, y: ds.Y,
		vals:   make([]float64, n*nf),
		sorted: make([]int32, n*nf),
		w:      make([]int32, n),
		order:  make([]int32, n*nf),
		left:   make([]bool, n),
		spill:  make([]int32, n),
		perm:   make([]int, nf),
	}
	for f := 0; f < nf; f++ {
		sortColumn(ds, f, g.vals[f*n:(f+1)*n], g.sorted[f*n:(f+1)*n])
	}
	return g
}

// bootstrap draws the next tree's sample, n rows with replacement, as a
// multiplicity per row.
func (g *grower) bootstrap() {
	clear(g.w)
	for i := 0; i < g.n; i++ {
		g.w[g.rng.Intn(g.n)]++
	}
}

// tree grows one CART tree, by Gini impurity, on the rows g.w weighs.
func (g *grower) tree() *treeNode {
	var counts [numClasses]int
	g.m = 0
	for r, c := range g.w {
		if c > 0 {
			counts[g.y[r]] += int(c)
			g.m++
		}
	}
	m := g.m
	for f := 0; f < g.nf; f++ {
		dst := g.order[f*m : (f+1)*m]
		k := 0
		for _, r := range g.sorted[f*g.n : (f+1)*g.n] {
			if g.w[r] > 0 {
				dst[k] = r
				k++
			}
		}
	}
	return g.grow(0, m, counts, 0)
}

// featureSample deals m distinct feature indices into the permutation
// buffer (all when m <= 0 or m >= nf, or when rng is nil). Its RNG
// consumption is one Shuffle per split, so training stays seed-for-seed
// deterministic.
func (g *grower) featureSample() []int {
	all := g.perm
	for i := range all {
		all[i] = i
	}
	m := g.cfg.maxFeatures
	if m <= 0 || m >= g.nf || g.rng == nil {
		return all
	}
	g.rng.Shuffle(g.nf, func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:m]
}

// grow grows the subtree over the stretch [lo, hi), whose rows weigh
// counts per class.
func (g *grower) grow(lo, hi int, counts [numClasses]int, depth int) *treeNode {
	total := counts[0] + counts[1]
	pure := counts[0] == total || counts[1] == total
	if pure || total < 2*g.cfg.minSamplesLeaf || (g.cfg.maxDepth > 0 && depth >= g.cfg.maxDepth) {
		return makeLeaf(counts, total)
	}
	feature, threshold := g.bestSplit(lo, hi, counts, total)
	if feature < 0 {
		return makeLeaf(counts, total)
	}
	mid, left := g.partition(lo, hi, feature, threshold)
	if mid == lo || mid == hi {
		return makeLeaf(counts, total)
	}
	right := [numClasses]int{counts[0] - left[0], counts[1] - left[1]}
	return &treeNode{
		feature:   feature,
		threshold: threshold,
		left:      g.grow(lo, mid, left, depth+1),
		right:     g.grow(mid, hi, right, depth+1),
	}
}

// bestSplit finds the Gini-optimal (feature, threshold) over a feature
// subsample of the stretch [lo, hi); it returns feature -1 when no split
// improves purity.
func (g *grower) bestSplit(lo, hi int, counts [numClasses]int, total int) (feature int, threshold float64) {
	parentGini := gini(counts, total)
	feature = -1
	gain := 0.0
	for _, f := range g.featureSample() {
		col := g.vals[f*g.n : (f+1)*g.n]
		rows := g.order[f*g.m+lo : f*g.m+hi]
		var leftCounts [numClasses]int
		nl := 0
		for k := 0; k+1 < len(rows); k++ {
			r := rows[k]
			c := int(g.w[r])
			leftCounts[g.y[r]] += c
			nl += c
			v, next := col[r], col[rows[k+1]]
			if v == next {
				continue
			}
			nr := total - nl
			if nl < g.cfg.minSamplesLeaf || nr < g.cfg.minSamplesLeaf {
				continue
			}
			var rightCounts [numClasses]int
			rightCounts[0] = counts[0] - leftCounts[0]
			rightCounts[1] = counts[1] - leftCounts[1]
			cand := parentGini -
				(float64(nl)*gini(leftCounts, nl)+float64(nr)*gini(rightCounts, nr))/float64(total)
			if cand > gain {
				gain = cand
				feature = f
				threshold = (v + next) / 2
			}
		}
	}
	return feature, threshold
}

// partition splits the stretch [lo, hi) of every feature's order into
// the rows whose feature f is at most threshold, then the rest, each side
// keeping its order. It returns where the right side starts and the left
// side's class counts; when one side is empty nothing moves.
func (g *grower) partition(lo, hi, f int, threshold float64) (mid int, left [numClasses]int) {
	col := g.vals[f*g.n : (f+1)*g.n]
	mid = lo
	for _, r := range g.order[f*g.m+lo : f*g.m+hi] {
		goes := col[r] <= threshold
		g.left[r] = goes
		if goes {
			mid++
			left[g.y[r]] += int(g.w[r])
		}
	}
	if mid == lo || mid == hi {
		return mid, left
	}
	for k := 0; k < g.nf; k++ {
		if k == f {
			continue // sorted by f, so its left rows are already the prefix
		}
		rows := g.order[k*g.m+lo : k*g.m+hi]
		nl, nr := 0, 0
		for _, r := range rows {
			if g.left[r] {
				rows[nl] = r
				nl++
			} else {
				g.spill[nr] = r
				nr++
			}
		}
		copy(rows[nl:], g.spill[:nr])
	}
	return mid, left
}
