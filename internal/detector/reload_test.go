package detector

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dynaminer/internal/ml"
	"dynaminer/internal/obs"
)

// trainDimForest trains a small forest on random vectors of the given
// feature dimensionality, so reload tests can produce both compatible
// (37-feature) and mis-dimensioned candidates. Two rows in three are
// labelled infections, so the forest's vote on a real watched WCG often
// crosses the engine's 0.5 threshold.
func trainDimForest(tb testing.TB, dim int, seed int64) *ml.FlatForest {
	tb.Helper()
	return trainForestOf(tb, dim, seed, 3)
}

// trainForestOf is trainDimForest with trees trees.
func trainForestOf(tb testing.TB, dim int, seed int64, trees int) *ml.FlatForest {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := &ml.Dataset{}
	for i := 0; i < 40; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.Float64()
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, min(i%3, 1))
	}
	f, err := ml.TrainForest(ds, ml.ForestConfig{NumTrees: trees, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// writeBlob saves a forest's DMFB blob under dir and returns the path.
func writeBlob(tb testing.TB, dir, name string, ff *ml.FlatForest) string {
	tb.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, ff.AppendFlatBlob(nil), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// counterValue reads a counter from a registry snapshot by name.
func counterValue(tb testing.TB, reg *obs.Registry, name string) int64 {
	tb.Helper()
	for _, ms := range reg.Snapshot() {
		if ms.Name == name {
			return ms.Value
		}
	}
	tb.Fatalf("metric %s not registered", name)
	return 0
}

// TestReloadCorruptBlobRejectedPreSwap is the reload safety regression:
// a corrupted DMFB artifact must be rejected before the swap — the old
// model keeps scoring, the failure is counted, and no cluster takes a
// quarantine strike.
func TestReloadCorruptBlobRejectedPreSwap(t *testing.T) {
	serving := trainDimForest(t, 37, 11)
	s := New(Config{Shards: 2, RedirectThreshold: 3}, serving)
	v0 := s.ModelVersion()
	if v0.Gen != 1 || v0.CRC != serving.BlobCRC() {
		t.Fatalf("initial version = %v, want g1 with the serving blob CRC", v0)
	}

	blob := serving.AppendFlatBlob(nil)
	blob[len(blob)/2] ^= 0xFF // corrupt a node slab byte
	dir := t.TempDir()
	bad := filepath.Join(dir, "corrupt.dmfb")
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.ReloadModelFile(bad); err == nil {
		t.Fatal("corrupt blob reload must fail")
	}
	if got := s.ModelVersion(); got != v0 {
		t.Fatalf("rejected reload changed the serving version: %v -> %v", v0, got)
	}
	if n := counterValue(t, s.Registry(), "dynaminer_model_reload_failures_total"); n != 1 {
		t.Fatalf("reload failures = %d, want 1", n)
	}
	if n := counterValue(t, s.Registry(), "dynaminer_model_reloads_total"); n != 0 {
		t.Fatalf("reloads = %d, want 0", n)
	}

	// The engine still serves: the infection stream classifies through the
	// untouched model without any quarantine trip.
	s.ProcessAll(infectionStream())
	st := s.Stats()
	if st.CluesFired != 1 || st.Classifications == 0 {
		t.Fatalf("engine stopped serving after rejected reload: %+v", st)
	}
	if st.Panics != 0 || st.Quarantined != 0 {
		t.Fatalf("rejected reload tripped quarantine: %+v", st)
	}

	// An unreadable path and a mis-dimensioned model ride the same
	// pre-swap rejection.
	if _, err := s.ReloadModelFile(filepath.Join(dir, "missing.dmfb")); err == nil {
		t.Fatal("missing file reload must fail")
	}
	narrow := writeBlob(t, dir, "narrow.dmfb", trainDimForest(t, 5, 12))
	if _, err := s.ReloadModelFile(narrow); err == nil {
		t.Fatal("mis-dimensioned reload must fail")
	}
	if got := s.ModelVersion(); got != v0 {
		t.Fatalf("serving version drifted across rejected reloads: %v", got)
	}
	if n := counterValue(t, s.Registry(), "dynaminer_model_reload_failures_total"); n != 3 {
		t.Fatalf("reload failures = %d, want 3", n)
	}
}

// TestReloadSwapAndRollback pins the version lifecycle: a valid reload
// advances the generation, rollback reinstates the previous model under
// its original identity, and rollback is its own inverse.
func TestReloadSwapAndRollback(t *testing.T) {
	first := trainDimForest(t, 37, 21)
	second := trainDimForest(t, 37, 22)
	s := New(Config{Shards: 2}, first)
	v1 := s.ModelVersion()

	path := writeBlob(t, t.TempDir(), "second.dmfb", second)
	v2, err := s.ReloadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Gen != v1.Gen+1 || v2.CRC != second.BlobCRC() {
		t.Fatalf("reload version = %v, want generation %d with the new blob CRC", v2, v1.Gen+1)
	}
	if s.ModelVersion() != v2 {
		t.Fatal("serving version not advanced")
	}
	if n := counterValue(t, s.Registry(), "dynaminer_model_reloads_total"); n != 1 {
		t.Fatalf("reloads = %d, want 1", n)
	}

	back, err := s.RollbackModel()
	if err != nil {
		t.Fatal(err)
	}
	if back != v1 || s.ModelVersion() != v1 {
		t.Fatalf("rollback reinstated %v, want the original %v", back, v1)
	}
	fwd, err := s.RollbackModel() // inverse: back to the reloaded model
	if err != nil || fwd != v2 {
		t.Fatalf("double rollback = %v, %v; want %v", fwd, err, v2)
	}

	e := New(Config{Shards: 1}, first)
	if _, err := e.RollbackModel(); err == nil {
		t.Fatal("rollback with no previous model must fail")
	}
	if _, err := e.models.swap(nil); err == nil {
		t.Fatal("nil swap must fail")
	}
}

// TestMidStreamReloadPinsWatches is the hot-swap acceptance differential:
// a watch armed before the swap keeps scoring through its pinned model —
// bit-identical to an engine that never reloaded — while watches armed
// after the swap pick up the new model.
func TestMidStreamReloadPinsWatches(t *testing.T) {
	txs := relatedFollowUp(2) // clue at index 4, growth, second download at the end

	pinnedRun := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	steadyRun := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))

	var pinnedAlerts, steadyAlerts []Alert
	for i, tx := range txs {
		pinnedAlerts = append(pinnedAlerts, pinnedRun.Process(tx)...)
		steadyAlerts = append(steadyAlerts, steadyRun.Process(tx)...)
		if i == 4 {
			// Swap right after the watch armed: the pinned run now serves a
			// different scorer, but this watch must not notice.
			if _, err := pinnedRun.models.swap(constScorer(0.2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(pinnedAlerts) == 0 || len(pinnedAlerts) != len(steadyAlerts) {
		t.Fatalf("alert counts diverged: swapped=%d steady=%d", len(pinnedAlerts), len(steadyAlerts))
	}
	for i := range pinnedAlerts {
		p, s := pinnedAlerts[i], steadyAlerts[i]
		if math.Float64bits(p.Score) != math.Float64bits(s.Score) {
			t.Fatalf("alert %d score diverged across mid-stream reload: %v vs %v", i, p.Score, s.Score)
		}
		if p.ClusterID != s.ClusterID || p.Client != s.Client || !p.Time.Equal(s.Time) {
			t.Fatalf("alert %d identity diverged: %+v vs %+v", i, p, s)
		}
	}

	// A watch armed after the swap scores with the new model: close the
	// pinned watch by idling past watchIdle, then re-offend.
	later := 30 * time.Minute
	second := infectionStream()
	for i := range second {
		second[i].ReqTime = second[i].ReqTime.Add(later)
		second[i].RespTime = second[i].RespTime.Add(later)
	}
	alerts := pinnedRun.ProcessAll(second)
	if len(alerts) != 0 {
		t.Fatalf("post-swap watch alerted at score 0.2: %+v", alerts)
	}
	if pinnedRun.Stats().CluesFired != 2 {
		t.Fatalf("second clue did not fire: %+v", pinnedRun.Stats())
	}
}

// TestNewAllocsIndependentOfForestSize pins what building an engine costs
// in the forest it serves: the model's identity, its blob CRC, is taken
// where the forest is made, so New allocates the same bytes for a 3-tree
// and a 300-tree forest. Deriving the CRC in New encoded the whole forest
// into a blob-sized buffer for every engine.
func TestNewAllocsIndependentOfForestSize(t *testing.T) {
	small, large := trainForestOf(t, 4, 1, 3), trainForestOf(t, 4, 1, 300)
	cfg := Config{Shards: 1}
	smallBytes := bytesPerRun(10, func() { New(cfg, small) })
	largeBytes := bytesPerRun(10, func() { New(cfg, large) })
	t.Logf("New: %.0f bytes over a %d-node forest, %.0f over a %d-node one", smallBytes, small.NumNodes(), largeBytes, large.NumNodes())
	if largeBytes > smallBytes+256 {
		t.Fatalf("New allocates %.0f bytes over a %d-node forest and %.0f over a %d-node one; want no growth with the forest",
			smallBytes, small.NumNodes(), largeBytes, large.NumNodes())
	}
}
