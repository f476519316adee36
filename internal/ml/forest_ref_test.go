package ml

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps the pointer-tree forest only as the oracle the flat
// slabs are pinned against: the trees exactly as the trainer grows them,
// scored by walking node pointers, and the recursive loader that builds
// the same trees from a blob's slabs. It also keeps the grower the
// presorted one replaced, which sorts every candidate feature at every
// node, as the oracle the trainer is pinned against. None of these exists
// outside tests.

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

// refGrowForest grows a forest the way the trainer did before the
// presort: each tree on a ds.Subset of its bootstrap draw, duplicates and
// all, with a fresh sort of (value, label) pairs for every candidate
// feature at every node. Its RNG draws come in the trainer's order.
func refGrowForest(ds *Dataset, cfg ForestConfig) []*treeNode {
	maxF := cfg.MaxFeatures
	if maxF <= 0 {
		maxF = LogMaxFeatures(ds.NumFeatures())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	treeCfg := treeConfig{maxFeatures: maxF, minSamplesLeaf: max(cfg.MinSamplesLeaf, 1), maxDepth: cfg.MaxDepth}
	roots := make([]*treeNode, cfg.NumTrees)
	for i := range roots {
		draw := make([]int, ds.Len())
		for j := range draw {
			draw[j] = rng.Intn(ds.Len())
		}
		sample := ds.Subset(draw)
		all := make([]int, sample.Len())
		for j := range all {
			all[j] = j
		}
		roots[i] = refGrow(sample, all, treeCfg, rng, 0, make([]int, ds.NumFeatures()))
	}
	return roots
}

type refValueLabel struct {
	v float64
	y int
}

// refGrow grows the subtree over the sample indices idx; perm is the
// tree's feature permutation buffer.
func refGrow(ds *Dataset, idx []int, cfg treeConfig, rng *rand.Rand, depth int, perm []int) *treeNode {
	var counts [numClasses]int
	for _, i := range idx {
		counts[ds.Y[i]]++
	}
	total := len(idx)
	pure := counts[0] == total || counts[1] == total
	if pure || total < 2*cfg.minSamplesLeaf || (cfg.maxDepth > 0 && depth >= cfg.maxDepth) {
		return makeLeaf(counts, total)
	}
	feature, threshold := refBestSplit(ds, idx, counts, cfg, rng, perm)
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
		left:      refGrow(ds, left, cfg, rng, depth+1, perm),
		right:     refGrow(ds, right, cfg, rng, depth+1, perm),
	}
}

// refBestSplit finds the Gini-optimal (feature, threshold) over a feature
// subsample by sorting the node's (value, label) pairs per candidate.
func refBestSplit(ds *Dataset, idx []int, counts [numClasses]int, cfg treeConfig, rng *rand.Rand, perm []int) (feature int, threshold float64) {
	total := len(idx)
	parentGini := gini(counts, total)
	for i := range perm {
		perm[i] = i
	}
	candidates := perm
	if nf, m := len(perm), cfg.maxFeatures; m > 0 && m < nf && rng != nil {
		rng.Shuffle(nf, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		candidates = perm[:m]
	}
	feature = -1
	gain := 0.0
	buf := make([]refValueLabel, total)
	for _, f := range candidates {
		for i, j := range idx {
			buf[i] = refValueLabel{v: ds.X[j][f], y: ds.Y[j]}
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

// diffDataset draws a seeded dataset for the grower differential: 2-600
// rows of 1-40 features whose columns are continuous, quantised to a few
// levels (long runs of ties), constant, or two adjacent floats (whose
// midpoint rounds onto one of them), and labels with a random balance.
func diffDataset(rng *rand.Rand) *Dataset {
	n, nf := 2+rng.Intn(599), 1+rng.Intn(40)
	kinds := make([]int, nf)
	for f := range kinds {
		kinds[f] = rng.Intn(4)
	}
	pos := rng.Float64()
	ds := &Dataset{X: make([][]float64, n), Y: make([]int, n)}
	for i := range ds.X {
		if rng.Float64() < pos {
			ds.Y[i] = LabelInfection
		}
		row := make([]float64, nf)
		for f, kind := range kinds {
			switch kind {
			case 0:
				row[f] = rng.NormFloat64() + float64(ds.Y[i])*rng.Float64()
			case 1:
				row[f] = float64(rng.Intn(4) + ds.Y[i]*rng.Intn(2))
			case 2:
				row[f] = 3.5
			case 3:
				row[f] = 1
				if rng.Intn(3) == 0 || ds.Y[i] == LabelInfection && rng.Intn(2) == 0 {
					row[f] = math.Nextafter(1, 2)
				}
			}
		}
		ds.X[i] = row
	}
	return ds
}

// TestGrowerMatchesRefGrow pins the presorted, weighted grower against the
// per-node-sort grower it replaced: on seeded random datasets and configs
// (MinSamplesLeaf 0-3, MaxDepth 0-5, every N_f) both grow forests whose
// DMFB blobs are equal byte for byte. Training the same data twice must
// also give the same bytes.
func TestGrowerMatchesRefGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for c := 0; c < 80; c++ {
		ds := diffDataset(rng)
		cfg := ForestConfig{
			NumTrees:       1 + rng.Intn(4),
			MaxFeatures:    rng.Intn(ds.NumFeatures() + 1),
			MinSamplesLeaf: rng.Intn(4),
			MaxDepth:       rng.Intn(6),
			Seed:           rng.Int63(),
		}
		ff, err := TrainForest(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := ff.AppendFlatBlob(nil)
		want := flatten(refGrowForest(ds, cfg), cfg, ds.NumFeatures()).AppendFlatBlob(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d (%d rows, %d features, %+v): presorted forest (%d nodes) differs from the per-node-sort forest",
				c, ds.Len(), ds.NumFeatures(), cfg, ff.NumNodes())
		}
		again, err := TrainForest(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.AppendFlatBlob(nil), got) {
			t.Fatalf("case %d: training the same data twice diverged", c)
		}
	}
}
