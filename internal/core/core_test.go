package core

import (
	"testing"

	"dynaminer/internal/ml"
	"dynaminer/internal/synth"
)

func corpus(t *testing.T) []synth.Episode {
	t.Helper()
	return synth.GenerateCorpus(synth.Config{Seed: 5, Infections: 80, Benign: 100})
}

func TestOfflineDatasetShape(t *testing.T) {
	convs := corpus(t)
	ds := OfflineDataset(convs)
	if ds.Len() != len(convs) {
		t.Fatalf("rows = %d, want %d", ds.Len(), len(convs))
	}
	if ds.NumFeatures() != 37 {
		t.Fatalf("features = %d, want 37", ds.NumFeatures())
	}
	pos := 0
	for _, y := range ds.Y {
		if y == ml.LabelInfection {
			pos++
		}
	}
	if pos != 80 {
		t.Fatalf("positives = %d, want 80", pos)
	}
}

func TestMonitorDatasetShape(t *testing.T) {
	convs := corpus(t)
	ds := MonitorDataset(convs)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every benign conversation contributes at least its whole trace, and
	// infections contribute clue subsets, so the monitor set is at least
	// as large as the benign count plus the infection count.
	if ds.Len() < len(convs) {
		t.Fatalf("monitor dataset = %d rows, want >= %d", ds.Len(), len(convs))
	}
	// And strictly larger than offline (subset snapshots add samples).
	if off := OfflineDataset(convs); ds.Len() <= off.Len() {
		t.Fatalf("monitor dataset = %d rows, offline = %d; snapshots missing", ds.Len(), off.Len())
	}
}

func TestTrainOfflineAndMonitor(t *testing.T) {
	convs := corpus(t)
	off, err := TrainOffline(convs, TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if off.NumTrees() != 20 {
		t.Fatalf("default trees = %d, want 20", off.NumTrees())
	}
	mon, err := TrainMonitor(convs, TrainConfig{NumTrees: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mon.NumTrees() != 7 {
		t.Fatalf("trees = %d, want 7", mon.NumTrees())
	}
	// Training accuracy of the offline model on its own data is high.
	ds := OfflineDataset(convs)
	res := ml.Evaluate(off, ds.X, ds.Y)
	if res.TPR < 0.95 || res.FPR > 0.05 {
		t.Fatalf("training accuracy off: TPR=%v FPR=%v", res.TPR, res.FPR)
	}
}

func TestTrainErrorsOnEmptyCorpus(t *testing.T) {
	if _, err := TrainOffline(nil, TrainConfig{}); err == nil {
		t.Fatal("empty corpus must error")
	}
	if _, err := TrainMonitor(nil, TrainConfig{}); err == nil {
		t.Fatal("empty corpus must error")
	}
}

// BenchmarkTrainMonitorForest trains the N_t = 20 ERF on the deployment
// dataset of the default synthetic corpus (seed 1): the shape a monitor
// trains at set-up, where BenchmarkTrainForest in internal/ml uses
// Gaussian rows. The dataset is built once, outside the timer.
func BenchmarkTrainMonitorForest(b *testing.B) {
	ds := MonitorDataset(synth.GenerateCorpus(synth.Config{Seed: 1}))
	cfg := TrainConfig{Seed: 1}.forestConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrainForest(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.Len()), "rows")
}
