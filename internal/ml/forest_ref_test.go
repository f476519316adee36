package ml

import (
	"fmt"
	"testing"
)

// This file keeps the pointer-tree forest only as the oracle the flat
// slabs are pinned against: the trees exactly as the trainer grows them,
// scored by walking node pointers, and the recursive loader that builds
// the same trees from a blob's slabs. Neither exists outside tests.

// refForest is an ensemble of linked CART trees.
type refForest struct {
	trees []*treeNode
	nf    int
}

// refTrain grows the trees TrainForest flattens, from the same seed.
func refTrain(tb testing.TB, ds *Dataset, cfg ForestConfig) *refForest {
	tb.Helper()
	roots, err := growForest(ds, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return &refForest{trees: roots, nf: ds.NumFeatures()}
}

// predictProba walks the tree rooted at n to x's leaf.
func (n *treeNode) predictProba(x []float64) [numClasses]float64 {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.probs
}

// predict is one tree's majority class for x.
func (n *treeNode) predict(x []float64) int {
	p := n.predictProba(x)
	if p[LabelInfection] > p[LabelBenign] {
		return LabelInfection
	}
	return LabelBenign
}

// depth is the depth of the tree rooted at n (a single leaf has depth 0).
func (n *treeNode) depth() int {
	if n.leaf {
		return 0
	}
	return 1 + max(n.left.depth(), n.right.depth())
}

func (f *refForest) checkDim(x []float64) {
	if f.nf > 0 && len(x) != f.nf {
		panic(fmt.Sprintf("ml: refForest.Score: feature vector has %d features, forest was trained on %d", len(x), f.nf))
	}
}

// Score is the mean of P(infection) over the trees, summed in tree order.
func (f *refForest) Score(x []float64) float64 {
	f.checkDim(x)
	sum := 0.0
	for _, t := range f.trees {
		sum += t.predictProba(x)[LabelInfection]
	}
	return sum / float64(len(f.trees))
}

// ScoreWithVotes is Score plus the count of trees whose P(infection)
// exceeds 0.5.
func (f *refForest) ScoreWithVotes(x []float64) (score float64, votes, trees int) {
	f.checkDim(x)
	sum := 0.0
	for _, t := range f.trees {
		p := t.predictProba(x)[LabelInfection]
		sum += p
		if p > 0.5 {
			votes++
		}
	}
	return sum / float64(len(f.trees)), votes, len(f.trees)
}

// majorityVotes counts the trees whose own majority class for x is
// infection — the per-tree rule the voting ablation is defined by.
func (f *refForest) majorityVotes(x []float64) int {
	votes := 0
	for _, t := range f.trees {
		if t.predict(x) == LabelInfection {
			votes++
		}
	}
	return votes
}

// refLoadBlob is the recursive oracle loader: it decodes the blob's
// header and layout like LoadFlatBlob, then rebuilds linked trees from the
// slabs by recursion instead of validateTreeSlab's explicit stack,
// screening every node with the same validateNode.
func refLoadBlob(data []byte) (*refForest, error) {
	ff, err := decodeFlatBlob(data)
	if err != nil {
		return nil, err
	}
	nt, nn := ff.NumTrees(), int32(ff.NumNodes())
	if ff.treeStart[0] != 0 || ff.treeStart[nt] != nn {
		return nil, fmt.Errorf("ml: tree index spans [%d, %d), want [0, %d)", ff.treeStart[0], ff.treeStart[nt], nn)
	}
	f := &refForest{nf: ff.nf}
	for t := 0; t < nt; t++ {
		pos, end := ff.treeStart[t], ff.treeStart[t+1]
		if pos >= end {
			return nil, fmt.Errorf("ml: tree %d: empty or non-monotone node range [%d, %d)", t, pos, end)
		}
		root, err := ff.refTree(&pos, end, 0)
		if err != nil {
			return nil, fmt.Errorf("ml: tree %d: %w", t, err)
		}
		if pos != end {
			return nil, fmt.Errorf("ml: tree %d: %d trailing nodes", t, end-pos)
		}
		f.trees = append(f.trees, root)
	}
	return f, nil
}

// refTree builds the subtree whose root is slab node *pos, advancing *pos
// past it; nodes at or beyond end belong to no tree. An internal node's
// right index must name the node after its left subtree.
func (ff *FlatForest) refTree(pos *int32, end int32, depth int) (*treeNode, error) {
	i := *pos
	if i >= end {
		return nil, fmt.Errorf("truncated node stream at %d", i)
	}
	if err := ff.validateNode(i, depth); err != nil {
		return nil, fmt.Errorf("node %d: %w", i, err)
	}
	*pos++
	if ff.feature[i] < 0 {
		return &treeNode{leaf: true, probs: [numClasses]float64{ff.p0[i], ff.p1[i]}}, nil
	}
	left, err := ff.refTree(pos, end, depth+1)
	if err != nil {
		return nil, err
	}
	if ff.right[i] != *pos {
		return nil, fmt.Errorf("node %d: right child %d, preorder puts it at %d", i, ff.right[i], *pos)
	}
	right, err := ff.refTree(pos, end, depth+1)
	if err != nil {
		return nil, err
	}
	return &treeNode{feature: int(ff.feature[i]), threshold: ff.threshold[i], left: left, right: right}, nil
}
