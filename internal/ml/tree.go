package ml

import (
	"math/rand"
	"sort"
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

// trainTree grows a CART tree on ds using Gini impurity and returns its
// root. rng drives the per-split feature subsampling (nil uses every
// feature at every split).
func trainTree(ds *Dataset, cfg treeConfig, rng *rand.Rand) *treeNode {
	if cfg.minSamplesLeaf < 1 {
		cfg.minSamplesLeaf = 1
	}
	return grow(ds, allIndices(ds.Len()), cfg, rng, 0, newTrainScratch(ds))
}

func classCounts(ds *Dataset, idx []int) [numClasses]int {
	var counts [numClasses]int
	for _, i := range idx {
		counts[ds.Y[i]]++
	}
	return counts
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

// trainScratch holds per-training reusable buffers: the feature
// permutation featureSample re-deals at every split, and the sorted
// value/label pairs bestSplit scans per candidate feature. Before the
// scratch existed, both were freshly allocated at every split and
// dominated training allocations. One scratch serves a whole tree:
// splits consume their candidate list fully before any recursion, so
// reuse never aliases live data.
type trainScratch struct {
	perm []int
	buf  []valueLabel
}

type valueLabel struct {
	v float64
	y int
}

func newTrainScratch(ds *Dataset) *trainScratch {
	return &trainScratch{
		perm: make([]int, ds.NumFeatures()),
		buf:  make([]valueLabel, ds.Len()),
	}
}

// featureSample deals m distinct feature indices into the scratch
// permutation (all when m <= 0 or m >= nf, or when rng is nil). The RNG
// consumption is identical to the pre-scratch allocation per call, so
// training stays seed-for-seed deterministic.
func featureSample(sc *trainScratch, nf, m int, rng *rand.Rand) []int {
	if cap(sc.perm) < nf {
		sc.perm = make([]int, nf)
	}
	all := sc.perm[:nf]
	for i := range all {
		all[i] = i
	}
	if m <= 0 || m >= nf || rng == nil {
		return all
	}
	rng.Shuffle(nf, func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:m]
}

// grow grows the subtree over the sample indices idx. sc is the
// per-training scratch every split borrows its buffers from.
func grow(ds *Dataset, idx []int, cfg treeConfig, rng *rand.Rand, depth int, sc *trainScratch) *treeNode {
	counts := classCounts(ds, idx)
	total := len(idx)
	pure := counts[0] == total || counts[1] == total
	if pure || total < 2*cfg.minSamplesLeaf || (cfg.maxDepth > 0 && depth >= cfg.maxDepth) {
		return makeLeaf(counts, total)
	}
	feature, threshold := bestSplit(ds, idx, counts, cfg, rng, sc)
	if feature < 0 {
		return makeLeaf(counts, total)
	}
	var left, right []int
	for _, j := range idx {
		if ds.X[j][feature] <= threshold {
			left = append(left, j)
		} else {
			right = append(right, j)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return makeLeaf(counts, total)
	}
	return &treeNode{
		feature:   feature,
		threshold: threshold,
		left:      grow(ds, left, cfg, rng, depth+1, sc),
		right:     grow(ds, right, cfg, rng, depth+1, sc),
	}
}

// bestSplit finds the Gini-optimal (feature, threshold) over a feature
// subsample; it returns feature -1 when no split improves purity. The
// candidate list and the value/label buffer come out of the training
// scratch; both are fully consumed before bestSplit returns, so the
// recursion into child splits can reuse them.
func bestSplit(ds *Dataset, idx []int, counts [numClasses]int, cfg treeConfig, rng *rand.Rand, sc *trainScratch) (feature int, threshold float64) {
	total := len(idx)
	parentGini := gini(counts, total)
	candidates := featureSample(sc, ds.NumFeatures(), cfg.maxFeatures, rng)
	feature = -1
	gain := 0.0

	if cap(sc.buf) < total {
		sc.buf = make([]valueLabel, total)
	}
	buf := sc.buf[:total]
	for _, f := range candidates {
		for i, j := range idx {
			buf[i] = valueLabel{v: ds.X[j][f], y: ds.Y[j]}
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a].v < buf[b].v })
		var leftCounts [numClasses]int
		for i := 0; i+1 < total; i++ {
			leftCounts[buf[i].y]++
			if buf[i].v == buf[i+1].v {
				continue
			}
			nl, nr := i+1, total-i-1
			if nl < cfg.minSamplesLeaf || nr < cfg.minSamplesLeaf {
				continue
			}
			var rightCounts [numClasses]int
			rightCounts[0] = counts[0] - leftCounts[0]
			rightCounts[1] = counts[1] - leftCounts[1]
			g := parentGini -
				(float64(nl)*gini(leftCounts, nl)+float64(nr)*gini(rightCounts, nr))/float64(total)
			if g > gain {
				gain = g
				feature = f
				threshold = (buf[i].v + buf[i+1].v) / 2
			}
		}
	}
	return feature, threshold
}
