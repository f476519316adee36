package ml

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"
)

// This file keeps the pointer-tree forest only as the oracle the flat
// slabs are pinned against: the trees exactly as the trainer grows them,
// scored by walking node pointers, and the recursive v1 JSON loader that
// builds the same trees from a file. Neither exists outside tests.

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

// writeJSON writes ff in the v1 JSON wire format, the way models were
// saved before DMFB became the only artifact written.
func writeJSON(w io.Writer, ff *FlatForest) error {
	wire := forestWire{Version: forestWireVersion, Features: ff.nf, Config: ff.cfg}
	for t := 0; t < ff.NumTrees(); t++ {
		var tw treeWire
		for i := ff.treeStart[t]; i < ff.treeStart[t+1]; i++ {
			if ff.feature[i] < 0 {
				tw.Nodes = append(tw.Nodes, nodeWire{Leaf: true, P0: ff.p0[i], P1: ff.p1[i]})
			} else {
				tw.Nodes = append(tw.Nodes, nodeWire{Feature: int(ff.feature[i]), Threshold: ff.threshold[i]})
			}
		}
		wire.Trees = append(wire.Trees, tw)
	}
	return json.NewEncoder(w).Encode(wire)
}

// refLoadForest is the recursive v1 JSON loader: it rebuilds linked trees
// from the preorder node streams, screening every node like
// LoadFlatForest does.
func refLoadForest(r io.Reader) (*refForest, error) {
	wire, err := readForestWire(r)
	if err != nil {
		return nil, err
	}
	f := &refForest{nf: wire.Features}
	for ti, tw := range wire.Trees {
		pos := 0
		root, err := unflattenTree(tw.Nodes, &pos, wire.Features, 0)
		if err != nil {
			return nil, fmt.Errorf("ml: tree %d: %w", ti, err)
		}
		if pos != len(tw.Nodes) {
			return nil, fmt.Errorf("ml: tree %d: %d trailing nodes", ti, len(tw.Nodes)-pos)
		}
		f.trees = append(f.trees, root)
	}
	return f, nil
}

func unflattenTree(nodes []nodeWire, pos *int, features, depth int) (*treeNode, error) {
	if *pos >= len(nodes) {
		return nil, fmt.Errorf("truncated node stream at %d", *pos)
	}
	nw := nodes[*pos]
	if err := validateNode(nw, features, depth); err != nil {
		return nil, fmt.Errorf("node %d: %w", *pos, err)
	}
	*pos++
	if nw.Leaf {
		n := &treeNode{leaf: true}
		n.probs[0], n.probs[1] = nw.P0, nw.P1
		return n, nil
	}
	left, err := unflattenTree(nodes, pos, features, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := unflattenTree(nodes, pos, features, depth+1)
	if err != nil {
		return nil, err
	}
	return &treeNode{feature: nw.Feature, threshold: nw.Threshold, left: left, right: right}, nil
}
