package ml

import "fmt"

// FlatForest is the trained ensemble in a contiguous struct-of-arrays
// layout: every tree's nodes live preorder in one shared slab, so a
// traversal touches sequential memory instead of chasing pointers, and the
// whole model is six flat arrays — the representation the DMFB blob stores
// verbatim and a model-distribution control plane can ship as one file.
// It is the package's only model type: TrainForest returns it, every
// loader produces it, and every scoring path walks it.
//
// Layout invariants (pinned by the differential tests in flat_test.go):
//   - nodes are preorder per tree; tree t occupies [treeStart[t],
//     treeStart[t+1]) with a sentinel treeStart[numTrees] == len(feature);
//   - an internal node's left child is the next node (i+1), its right child
//     is right[i]; feature[i] >= 0;
//   - a leaf has feature[i] == -1 and carries its class probabilities in
//     p0[i]/p1[i]; threshold and right are zero.
//
// Score and ScoreWithVotes accumulate per-tree leaf probabilities in tree
// order and divide once, so they are bit-identical (math.Float64bits) to
// the pointer walk over the trees as trained — the detector's journal
// rescoring contract relies on that. FlatForest is immutable after
// construction and safe for concurrent use.
type FlatForest struct {
	feature   []int32
	threshold []float64
	right     []int32
	p0, p1    []float64
	treeStart []int32
	cfg       ForestConfig
	nf        int
	crc       uint32 // BlobCRC, taken where the forest is made
}

// newFlatForest allocates empty slabs sized for nodes nodes across trees
// trees.
func newFlatForest(nodes, trees int, cfg ForestConfig, nf int) *FlatForest {
	return &FlatForest{
		feature:   make([]int32, 0, nodes),
		threshold: make([]float64, 0, nodes),
		right:     make([]int32, 0, nodes),
		p0:        make([]float64, 0, nodes),
		p1:        make([]float64, 0, nodes),
		treeStart: make([]int32, 0, trees+1),
		cfg:       cfg,
		nf:        nf,
	}
}

// flatten lays the grown trees out in the slabs, once, at the end of
// training.
func flatten(roots []*treeNode, cfg ForestConfig, nf int) *FlatForest {
	nodes := 0
	for _, r := range roots {
		nodes += countNodes(r)
	}
	ff := newFlatForest(nodes, len(roots), cfg, nf)
	for _, r := range roots {
		ff.treeStart = append(ff.treeStart, int32(len(ff.feature)))
		ff.flattenNode(r)
	}
	ff.treeStart = append(ff.treeStart, int32(len(ff.feature)))
	ff.crc = blobCRC(ff.AppendFlatBlob(nil))
	return ff
}

// flattenNode appends the subtree rooted at n in preorder and returns its
// slab index.
func (ff *FlatForest) flattenNode(n *treeNode) int32 {
	i := int32(len(ff.feature))
	if n.leaf {
		ff.appendLeaf(n.probs[0], n.probs[1])
		return i
	}
	ff.appendInternal(n.feature, n.threshold)
	ff.flattenNode(n.left)
	ff.right[i] = ff.flattenNode(n.right)
	return i
}

// appendLeaf appends a leaf with its canonical zero threshold and right
// index.
func (ff *FlatForest) appendLeaf(p0, p1 float64) {
	ff.feature = append(ff.feature, -1)
	ff.threshold = append(ff.threshold, 0)
	ff.right = append(ff.right, 0)
	ff.p0 = append(ff.p0, p0)
	ff.p1 = append(ff.p1, p1)
}

// appendInternal appends a split node; its right index is patched once the
// left subtree has landed.
func (ff *FlatForest) appendInternal(feature int, threshold float64) {
	ff.feature = append(ff.feature, int32(feature))
	ff.threshold = append(ff.threshold, threshold)
	ff.right = append(ff.right, 0)
	ff.p0 = append(ff.p0, 0)
	ff.p1 = append(ff.p1, 0)
}

// NumTrees returns the ensemble size.
func (ff *FlatForest) NumTrees() int { return len(ff.treeStart) - 1 }

// NumFeatures returns the feature dimensionality the forest was trained
// on (0 for a blob that declares no feature count).
func (ff *FlatForest) NumFeatures() int { return ff.nf }

// NumNodes returns the total node count across all trees.
func (ff *FlatForest) NumNodes() int { return len(ff.feature) }

// Config returns the training configuration the forest was built with.
func (ff *FlatForest) Config() ForestConfig { return ff.cfg }

// checkDim guards traversal against mis-dimensioned vectors: a short
// vector would otherwise die as a bare index-out-of-range deep inside the
// node loop. The named panic lets the detector's quarantine ladder
// attribute the fault.
func (ff *FlatForest) checkDim(x []float64) {
	if ff.nf > 0 && len(x) != ff.nf {
		panic(fmt.Sprintf("ml: FlatForest.Score: feature vector has %d features, forest was trained on %d", len(x), ff.nf))
	}
}

// leafFor walks one tree to the leaf x lands in and returns its slab index.
func (ff *FlatForest) leafFor(t int, x []float64) int32 {
	feats, thr, right := ff.feature, ff.threshold, ff.right
	i := ff.treeStart[t]
	for {
		f := feats[i]
		if f < 0 {
			return i
		}
		if x[f] <= thr[i] {
			i++
		} else {
			i = right[i]
		}
	}
}

// Score returns the averaged probability that x is an infection: the mean
// of P(infection) over all trees.
func (ff *FlatForest) Score(x []float64) float64 {
	ff.checkDim(x)
	sum := 0.0
	nt := ff.NumTrees()
	for t := 0; t < nt; t++ {
		sum += ff.p1[ff.leafFor(t, x)]
	}
	return sum / float64(nt)
}

// ScoreWithVotes returns the ensemble score with the per-tree vote tally:
// how many trees put the infection class above 0.5 for x. A trained leaf
// holds p0 = c0/n and p1 = c1/n, so p1 > 0.5 is exactly the per-tree
// majority rule p1 > p0. The score accumulates in exactly the same order
// as Score, so it is bit-identical — the detector's alert journal relies
// on that.
func (ff *FlatForest) ScoreWithVotes(x []float64) (score float64, votes, trees int) {
	ff.checkDim(x)
	sum := 0.0
	nt := ff.NumTrees()
	for t := 0; t < nt; t++ {
		p := ff.p1[ff.leafFor(t, x)]
		sum += p
		if p > 0.5 {
			votes++
		}
	}
	return sum / float64(nt), votes, nt
}

// ScoreBatch evaluates the ensemble over X, writing the score of X[i]
// into dst[i]. dst is grown only when its capacity is insufficient; the
// (possibly reallocated) slice is returned, and nothing allocates when
// dst has room. The walk is tree-outer: each tree's slab region stays hot
// in cache while every sample traverses it. Per sample the leaf
// probabilities still accumulate in tree order with one final divide, so
// every dst[i] is bit-identical to Score(X[i]).
func (ff *FlatForest) ScoreBatch(dst []float64, X [][]float64) []float64 {
	for _, x := range X {
		ff.checkDim(x)
	}
	if cap(dst) < len(X) {
		dst = make([]float64, len(X))
	}
	dst = dst[:len(X)]
	for i := range dst {
		dst[i] = 0
	}
	nt := ff.NumTrees()
	for t := 0; t < nt; t++ {
		for i, x := range X {
			dst[i] += ff.p1[ff.leafFor(t, x)]
		}
	}
	inv := float64(nt)
	for i := range dst {
		dst[i] /= inv
	}
	return dst
}
