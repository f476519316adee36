package ml

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// flatDiffConfigs are the seeded forest shapes the differential suite pins
// FlatForest against the pointer-tree oracle on: shallow and deep trees,
// single tree and full ensemble, restricted and unrestricted feature
// sampling, and impure leaves (depth and leaf-size caps).
var flatDiffConfigs = []ForestConfig{
	{NumTrees: 1, Seed: 1},
	{NumTrees: 5, Seed: 7, MaxDepth: 3},
	{NumTrees: 20, Seed: 2},
	{NumTrees: 20, Seed: 3, MaxFeatures: 2, MinSamplesLeaf: 4},
	{NumTrees: 9, Seed: 11, MaxDepth: 1},
}

func probeVectors(n, dim int, rng *rand.Rand) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64() * 2
		}
		X[i] = x
	}
	return X
}

// TestFlatForestDifferential pins the trained slabs against the pointer
// walk over the same grown trees bit-for-bit: scores (math.Float64bits),
// vote tallies, and batch scoring, across every seeded config. The vote
// tally (p1 > 0.5) must also equal the per-tree majority rule (p1 > p0)
// the voting ablation is defined by.
func TestFlatForestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const dim = 8
	ds := gaussDataset(300, dim, 4, 1.2, rng)
	X := append(probeVectors(500, dim, rng), ds.X...)
	for _, cfg := range flatDiffConfigs {
		ff, err := TrainForest(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := refTrain(t, ds, cfg)
		if ff.NumTrees() != len(ref.trees) || ff.NumFeatures() != ref.nf {
			t.Fatalf("cfg %+v: shape mismatch: %d/%d trees, %d/%d features",
				cfg, ff.NumTrees(), len(ref.trees), ff.NumFeatures(), ref.nf)
		}
		want := make([]float64, len(X))
		for i, x := range X {
			want[i] = ref.Score(x)
			got := ff.Score(x)
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("cfg %+v probe %d: flat score %v != pointer score %v", cfg, i, got, want[i])
			}
			ps, pv, pt := ref.ScoreWithVotes(x)
			fs, fv, ft := ff.ScoreWithVotes(x)
			if math.Float64bits(fs) != math.Float64bits(ps) || fv != pv || ft != pt {
				t.Fatalf("cfg %+v probe %d: votes (%v,%d,%d) != (%v,%d,%d)", cfg, i, fs, fv, ft, ps, pv, pt)
			}
			if mv := ref.majorityVotes(x); fv != mv {
				t.Fatalf("cfg %+v probe %d: %d trees above 0.5, %d trees with p1 > p0", cfg, i, fv, mv)
			}
		}
		batch := ff.ScoreBatch(nil, X)
		for i := range batch {
			if math.Float64bits(batch[i]) != math.Float64bits(want[i]) {
				t.Fatalf("cfg %+v: ScoreBatch[%d] = %v, want %v", cfg, i, batch[i], want[i])
			}
		}
	}
}

// TestFlatForestSerializedRoundTrip pins the DMFB artifact against the
// trees as trained: a trained forest's blob loads back and re-encodes
// byte for byte, and both the loaded slabs and the pointer trees the
// recursive oracle builds from the blob score bit-identically to them.
func TestFlatForestSerializedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const dim = 7
	ds := gaussDataset(200, dim, 3, 1.5, rng)
	X := probeVectors(200, dim, rng)
	for _, cfg := range flatDiffConfigs {
		ff, err := TrainForest(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := refTrain(t, ds, cfg)
		blob := ff.AppendFlatBlob(nil)
		loaded, err := LoadFlatBlob(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("cfg %+v: LoadFlatBlob: %v", cfg, err)
		}
		if !bytes.Equal(loaded.AppendFlatBlob(nil), blob) {
			t.Fatalf("cfg %+v: loaded blob does not re-encode byte for byte", cfg)
		}
		loadedRef, err := refLoadBlob(blob)
		if err != nil {
			t.Fatalf("cfg %+v: recursive loader: %v", cfg, err)
		}
		for i, x := range X {
			want := ref.Score(x)
			if got := loaded.Score(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cfg %+v probe %d: loaded score %v != %v", cfg, i, got, want)
			}
			if got := loadedRef.Score(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cfg %+v probe %d: recursively loaded score %v != %v", cfg, i, got, want)
			}
		}
	}
}

// TestScoreBatchReusesDst pins the zero-alloc contract of the batch path:
// a dst with capacity is reused, not reallocated.
func TestScoreBatchReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dim = 5
	ds := gaussDataset(100, dim, 2, 1.5, rng)
	ff, err := TrainForest(ds, ForestConfig{NumTrees: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	X := probeVectors(64, dim, rng)
	dst := make([]float64, 0, len(X))
	out := ff.ScoreBatch(dst, X)
	if &out[0] != &dst[:1][0] {
		t.Fatal("ScoreBatch reallocated a dst with sufficient capacity")
	}
	if n := testing.AllocsPerRun(100, func() { out = ff.ScoreBatch(out, X) }); n != 0 {
		t.Fatalf("ScoreBatch with capacity allocates %v per run", n)
	}
}

// BenchmarkScoreBatchFlat scores a 256-vector block per iteration through
// the tree-outer batch kernel into a reused dst; ns/sample is the figure
// to hold against the single-vector ml.score_ns_per_vector.
func BenchmarkScoreBatchFlat(b *testing.B) {
	ff, _ := blobFixture(b)
	X := probeVectors(256, ff.NumFeatures(), rand.New(rand.NewSource(3)))
	dst := make([]float64, len(X))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ff.ScoreBatch(dst, X)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(X)), "ns/sample")
}

// trainBenchDataset is the 1000 x 37 Gaussian training set
// BenchmarkTrainForest and TestTrainForestAllocs share.
func trainBenchDataset() *Dataset {
	return gaussDataset(1000, 37, 8, 1.0, rand.New(rand.NewSource(1)))
}

// BenchmarkTrainForest pins training cost and, via allocs/op, that the
// grower's buffers are allocated once per forest.
func BenchmarkTrainForest(b *testing.B) {
	ds := trainBenchDataset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainForest(ds, ForestConfig{NumTrees: 5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTrainForestAllocs holds training to one allocation per grown node
// plus a constant per forest: the presort, the per-tree buffers and the
// slabs are allocated once, and no split or tree allocates scratch of its
// own. A per-node sort buffer or a per-tree dataset copy breaks it (the
// per-node-sort grower made 13 654 allocations here, for 933 nodes).
func TestTrainForestAllocs(t *testing.T) {
	ds := trainBenchDataset()
	cfg := ForestConfig{NumTrees: 5, Seed: 1}
	var ff *FlatForest
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if ff, err = TrainForest(ds, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(ff.NumNodes() + 64); allocs > limit {
		t.Fatalf("TrainForest made %.0f allocations for %d nodes, want at most %.0f", allocs, ff.NumNodes(), limit)
	}
}

// TestScoreIntoReusesBuffer checks that scoring a batch into a caller's
// buffer grows it only when needed, reuses a sufficient one without
// allocating, and fills it with the per-sample scores. The per-vector
// scorers the detector calls on every classification allocate nothing
// either.
func TestScoreIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 6
	ds := gaussDataset(50, dim, 3, 1.5, rng)
	ff, err := TrainForest(ds, ForestConfig{NumTrees: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	X := ds.X
	buf := make([]float64, 0, len(X))
	out := ff.ScoreBatch(buf, X)
	if &out[0] != &buf[:1][0] {
		t.Fatal("ScoreBatch reallocated despite sufficient capacity")
	}
	for i, x := range X {
		if want := ff.Score(x); math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("sample %d: %v != %v", i, out[i], want)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		buf = ff.ScoreBatch(buf, X)
	})
	if allocs != 0 {
		t.Fatalf("ScoreBatch with warm buffer allocated %.1f times per run", allocs)
	}
	for _, c := range []struct {
		name  string
		score func()
	}{
		{"Score", func() { ff.Score(X[0]) }},
		{"ScoreWithVotes", func() { ff.ScoreWithVotes(X[0]) }},
	} {
		if allocs := testing.AllocsPerRun(20, c.score); allocs != 0 {
			t.Fatalf("%s allocated %.1f times per call", c.name, allocs)
		}
	}
	// Short destinations grow.
	short := make([]float64, 2)
	if got := ff.ScoreBatch(short, X); len(got) != len(X) {
		t.Fatalf("ScoreBatch returned %d scores, want %d", len(got), len(X))
	}
}

// TestForestDimensionGuard pins the named panic on mis-dimensioned
// vectors: before the guard, a short vector died as a bare
// index-out-of-range inside tree traversal.
func TestForestDimensionGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds := gaussDataset(100, 6, 3, 1.5, rng)
	ff, err := TrainForest(ds, ForestConfig{NumTrees: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	short := make([]float64, 4)
	for name, fn := range map[string]func(){
		"FlatForest.Score":          func() { ff.Score(short) },
		"FlatForest.ScoreWithVotes": func() { ff.ScoreWithVotes(short) },
		"FlatForest.ScoreBatch":     func() { ff.ScoreBatch(nil, [][]float64{short}) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic on short vector", name)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "ml: ") || !strings.Contains(msg, "feature") {
					t.Fatalf("%s: panic %v is not the named dimension message", name, r)
				}
			}()
			fn()
		}()
	}
	// Unknown dimensionality (legacy artifacts) stays unguarded rather
	// than rejecting every vector.
	legacy := *ff
	legacy.nf = 0
	if got := legacy.Score(probeVectors(1, 6, rng)[0]); math.IsNaN(got) || got < 0 || got > 1 {
		t.Fatalf("legacy forest score %v is not a probability", got)
	}
}
