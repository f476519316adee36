package ml

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// gaussDataset builds a two-class dataset: class means separated by sep on
// the first dim features; remaining dims are pure noise.
func gaussDataset(n, dim, dimInformative int, sep float64, rng *rand.Rand) *Dataset {
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		label := i % 2
		row := make([]float64, dim)
		for j := 0; j < dim; j++ {
			row[j] = rng.NormFloat64()
			if j < dimInformative && label == LabelInfection {
				row[j] += sep
			}
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, label)
	}
	return ds
}

// trainTree grows one tree on every row of ds, each weighing one.
func trainTree(ds *Dataset, cfg treeConfig, rng *rand.Rand) *treeNode {
	g := newGrower(ds, cfg, rng)
	for r := range g.w {
		g.w[r] = 1
	}
	return g.tree()
}

func TestDatasetValidate(t *testing.T) {
	good := &Dataset{X: [][]float64{{1, 2}, {3, 4}}, Y: []int{0, 1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Dataset{
		{X: [][]float64{{1}}, Y: []int{0, 1}}, // length mismatch
		{},                                    // empty
		{X: [][]float64{{1, 2}, {3}}, Y: []int{0, 0}}, // ragged
		{X: [][]float64{{1}}, Y: []int{7}},            // bad label
	}
	for i, ds := range bad {
		if err := ds.Validate(); err == nil {
			t.Errorf("bad dataset %d validated", i)
		}
	}
}

// TestNonFiniteFeaturesRejected pins that a NaN or infinite cell fails
// validation, naming its row and column, and so fails training. Before
// the check, -Inf on one side of a separable feature trained a forest
// whose -Inf threshold made its own DMFB blob unloadable, and +Inf
// trained a +Inf threshold that sends every row left.
func TestNonFiniteFeaturesRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ds := &Dataset{
			X: [][]float64{{0, 1}, {0.1, 1}, {0.9, 1}, {1, 1}},
			Y: []int{0, 0, 1, 1},
		}
		ds.X[2][0] = v
		err := ds.Validate()
		if err == nil || !strings.Contains(err.Error(), "row 2 column 0") {
			t.Fatalf("%v cell: Validate = %v, want an error naming row 2 column 0", v, err)
		}
		if _, err := TrainForest(ds, ForestConfig{NumTrees: 3, Seed: 1}); err == nil {
			t.Fatalf("%v cell: TrainForest trained a forest", v)
		}
	}
}

func TestSubsetAndSelectFeatures(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1, 10}, {2, 20}, {3, 30}}, Y: []int{0, 1, 0}}
	sub := ds.Subset([]int{2, 0})
	if sub.Len() != 2 || sub.X[0][0] != 3 || sub.Y[1] != 0 {
		t.Fatalf("subset wrong: %+v", sub)
	}
	sel := ds.SelectFeatures([]int{1})
	if sel.NumFeatures() != 1 || sel.X[1][0] != 20 {
		t.Fatalf("select wrong: %+v", sel)
	}
	// Selecting must copy: mutating the selection must not touch ds.
	sel.X[0][0] = -1
	if ds.X[0][1] == -1 {
		t.Fatal("SelectFeatures aliases the source")
	}
}

func TestStratifiedKFold(t *testing.T) {
	y := make([]int, 100)
	for i := 60; i < 100; i++ {
		y[i] = 1
	}
	rng := rand.New(rand.NewSource(5))
	folds := StratifiedKFold(y, 10, rng)
	if len(folds) != 10 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := make(map[int]int)
	for _, fold := range folds {
		pos := 0
		for _, i := range fold {
			seen[i]++
			if y[i] == 1 {
				pos++
			}
		}
		if len(fold) != 10 || pos != 4 {
			t.Fatalf("fold size=%d positives=%d, want 10/4", len(fold), pos)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("folds cover %d samples, want 100", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d appears %d times", i, c)
		}
	}
	train := TrainIndices(100, folds[0])
	if len(train) != 90 {
		t.Fatalf("train size = %d", len(train))
	}
}

func TestTreeSeparableData(t *testing.T) {
	ds := &Dataset{
		X: [][]float64{{0}, {0.1}, {0.2}, {0.9}, {1.0}, {1.1}},
		Y: []int{0, 0, 0, 1, 1, 1},
	}
	tree := trainTree(ds, treeConfig{}, nil)
	for i, x := range ds.X {
		if tree.predict(x) != ds.Y[i] {
			t.Fatalf("misclassified training sample %d", i)
		}
	}
	if tree.depth() != 1 {
		t.Fatalf("depth = %d, want 1 for a single split", tree.depth())
	}
	if countNodes(tree) != 3 {
		t.Fatalf("nodes = %d, want 3", countNodes(tree))
	}
	p := tree.predictProba([]float64{0})
	if p[LabelBenign] != 1 || p[LabelInfection] != 0 {
		t.Fatalf("probs = %v", p)
	}
}

func TestTreePureLeaf(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []int{1, 1, 1}}
	tree := trainTree(ds, treeConfig{}, nil)
	if tree.depth() != 0 {
		t.Fatal("pure dataset must produce a single leaf")
	}
	if tree.predict([]float64{99}) != 1 {
		t.Fatal("pure leaf prediction wrong")
	}
}

func TestTreeMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := gaussDataset(200, 4, 2, 1.5, rng)
	tree := trainTree(ds, treeConfig{maxDepth: 2}, nil)
	if tree.depth() > 2 {
		t.Fatalf("depth = %d exceeds maxDepth 2", tree.depth())
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	ds := &Dataset{
		X: [][]float64{{0}, {1}, {2}, {3}},
		Y: []int{0, 0, 1, 1},
	}
	tree := trainTree(ds, treeConfig{minSamplesLeaf: 3}, nil)
	// A split would leave a side with < 3 samples, so the root is a leaf.
	if tree.depth() != 0 {
		t.Fatalf("depth = %d, want 0 with minSamplesLeaf 3", tree.depth())
	}
	p := tree.predictProba([]float64{0})
	if math.Abs(p[0]-0.5) > 1e-9 {
		t.Fatalf("leaf probs = %v, want 0.5/0.5", p)
	}
}

func TestTreeConstantFeature(t *testing.T) {
	// All feature values equal: no split possible, never panics.
	ds := &Dataset{X: [][]float64{{5}, {5}, {5}, {5}}, Y: []int{0, 1, 0, 1}}
	tree := trainTree(ds, treeConfig{}, nil)
	if tree.depth() != 0 {
		t.Fatal("constant feature must not split")
	}
}

func TestLogMaxFeatures(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 4: 3, 37: 6, 64: 7}
	for nf, want := range cases {
		if got := LogMaxFeatures(nf); got != want {
			t.Errorf("LogMaxFeatures(%d) = %d, want %d", nf, got, want)
		}
	}
}

func TestForestTrainsAndPredicts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	train := gaussDataset(400, 8, 3, 2.0, rng)
	test := gaussDataset(200, 8, 3, 2.0, rng)
	f, err := TrainForest(train, ForestConfig{NumTrees: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 20 {
		t.Fatalf("trees = %d", f.NumTrees())
	}
	res := Evaluate(f, test.X, test.Y)
	if res.TPR < 0.9 {
		t.Fatalf("TPR = %v, want >= 0.9 on well-separated data", res.TPR)
	}
	if res.FPR > 0.1 {
		t.Fatalf("FPR = %v, want <= 0.1", res.FPR)
	}
	if res.ROCArea < 0.95 {
		t.Fatalf("AUC = %v", res.ROCArea)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := gaussDataset(100, 5, 2, 1.0, rng)
	f1, err := TrainForest(ds, ForestConfig{NumTrees: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := TrainForest(ds, ForestConfig{NumTrees: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	if f1.Score(probe) != f2.Score(probe) {
		t.Fatal("same seed must give identical forests")
	}
}

func TestForestErrors(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}}, Y: []int{0}}
	if _, err := TrainForest(ds, ForestConfig{NumTrees: 0}); err == nil {
		t.Fatal("NumTrees 0 must error")
	}
	if _, err := TrainForest(&Dataset{}, ForestConfig{NumTrees: 20, Seed: 1}); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 8 infections: 7 caught; 10 benign: 1 flagged.
	for i := 0; i < 7; i++ {
		c.Add(LabelInfection, LabelInfection)
	}
	c.Add(LabelInfection, LabelBenign)
	for i := 0; i < 9; i++ {
		c.Add(LabelBenign, LabelBenign)
	}
	c.Add(LabelBenign, LabelInfection)

	if math.Abs(c.TPR()-0.875) > 1e-9 {
		t.Fatalf("TPR = %v", c.TPR())
	}
	if math.Abs(c.FPR()-0.1) > 1e-9 {
		t.Fatalf("FPR = %v", c.FPR())
	}
	if math.Abs(c.Precision()-7.0/8.0) > 1e-9 {
		t.Fatalf("precision = %v", c.Precision())
	}
	want := 2 * 0.875 * 0.875 / (0.875 + 0.875)
	if math.Abs(c.FScore()-want) > 1e-9 {
		t.Fatalf("fscore = %v, want %v", c.FScore(), want)
	}
	var empty Confusion
	if empty.TPR() != 0 || empty.FScore() != 0 {
		t.Fatal("empty confusion must yield zeros")
	}
}

func TestROCPerfectAndReversed(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	y := []int{1, 1, 0, 0}
	if auc := AUC(ROC(scores, y)); math.Abs(auc-1) > 1e-9 {
		t.Fatalf("perfect AUC = %v", auc)
	}
	yRev := []int{0, 0, 1, 1}
	if auc := AUC(ROC(scores, yRev)); math.Abs(auc) > 1e-9 {
		t.Fatalf("reversed AUC = %v", auc)
	}
}

func TestROCTiedScores(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	y := []int{1, 0, 1, 0}
	curve := ROC(scores, y)
	if auc := AUC(curve); math.Abs(auc-0.5) > 1e-9 {
		t.Fatalf("tied AUC = %v, want 0.5", auc)
	}
	last := curve[len(curve)-1]
	if last.TPR != 1 || last.FPR != 1 {
		t.Fatalf("curve must end at (1,1): %+v", last)
	}
}

func TestAUCRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		scores := make([]float64, n)
		y := make([]int, n)
		for i := range scores {
			scores[i] = rng.Float64()
			y[i] = rng.Intn(2)
		}
		auc := AUC(ROC(scores, y))
		return auc >= -1e-9 && auc <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeProbsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := gaussDataset(300, 6, 2, 1.0, rng)
	tree := trainTree(ds, treeConfig{maxFeatures: 3}, rng)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, 6)
		for i := range x {
			x[i] = r.NormFloat64() * 3
		}
		p := tree.predictProba(x)
		return math.Abs(p[0]+p[1]-1) < 1e-9 && p[0] >= 0 && p[1] >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGainRatio(t *testing.T) {
	// Feature 0 separates classes perfectly; feature 1 is constant.
	ds := &Dataset{
		X: [][]float64{{0, 5}, {0.1, 5}, {0.9, 5}, {1.0, 5}},
		Y: []int{0, 0, 1, 1},
	}
	if gr := GainRatio(ds, 0); math.Abs(gr-1) > 1e-9 {
		t.Fatalf("perfect feature gain ratio = %v, want 1", gr)
	}
	if gr := GainRatio(ds, 1); gr != 0 {
		t.Fatalf("constant feature gain ratio = %v, want 0", gr)
	}
	// Pure labels: no information to gain.
	pure := &Dataset{X: [][]float64{{1}, {2}}, Y: []int{1, 1}}
	if gr := GainRatio(pure, 0); gr != 0 {
		t.Fatalf("pure labels gain ratio = %v", gr)
	}
}

func TestRankFeaturesCV(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Feature 0 strongly informative, 1 weakly, 2-4 noise.
	ds := &Dataset{}
	for i := 0; i < 300; i++ {
		label := i % 2
		row := make([]float64, 5)
		row[0] = float64(label)*3 + rng.NormFloat64()*0.3
		row[1] = float64(label) + rng.NormFloat64()
		for j := 2; j < 5; j++ {
			row[j] = rng.NormFloat64()
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, label)
	}
	ranks := RankFeaturesCV(ds, 10, rng)
	if len(ranks) != 5 {
		t.Fatalf("ranks = %d", len(ranks))
	}
	if ranks[0].Feature != 0 {
		t.Fatalf("top feature = %d, want 0 (%+v)", ranks[0].Feature, ranks[0])
	}
	if ranks[0].RankMean != 1 {
		t.Fatalf("top rank mean = %v", ranks[0].RankMean)
	}
	if ranks[0].GainRatioMean <= ranks[4].GainRatioMean {
		t.Fatal("gain ratios not ordered with ranks")
	}
}

func TestCrossValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ds := gaussDataset(300, 6, 3, 2.0, rng)
	res, err := CrossValidate(ds, ForestConfig{NumTrees: 10, Seed: 3}, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.TPR < 0.9 || res.FPR > 0.1 {
		t.Fatalf("cv result off: TPR=%v FPR=%v", res.TPR, res.FPR)
	}
	total := res.Confusion.TP + res.Confusion.TN + res.Confusion.FP + res.Confusion.FN
	if total != 300 {
		t.Fatalf("cv predictions = %d, want 300", total)
	}
	if _, err := CrossValidate(&Dataset{}, ForestConfig{NumTrees: 20, Seed: 1}, 5, rng); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestCrossValidateVoting(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ds := gaussDataset(200, 6, 3, 2.0, rng)
	res, err := CrossValidateVoting(ds, ForestConfig{NumTrees: 11, Seed: 3}, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.TPR < 0.85 {
		t.Fatalf("voting TPR = %v", res.TPR)
	}
	if _, err := CrossValidateVoting(&Dataset{}, ForestConfig{NumTrees: 20, Seed: 1}, 5, rng); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-9 || math.Abs(s-2) > 1e-9 {
		t.Fatalf("meanStd = %v, %v; want 5, 2", m, s)
	}
	m, s = meanStd(nil)
	if m != 0 || s != 0 {
		t.Fatal("empty meanStd must be zeros")
	}
}
