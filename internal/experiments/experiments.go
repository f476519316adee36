// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) plus the ablations DESIGN.md adds: dataset
// statistics (Table I, Figures 1-4, 6-9), classifier effectiveness
// (Table III, Table IV, Figure 10), the independent validation against the
// simulated AV ensemble (Table V), and both case studies (Section VI-C and
// Table VI). Each experiment returns a structured result with a String
// rendering for cmd/experiments; the package tests pin the renderings
// against golden files (DESIGN.md §4).
package experiments

import (
	"math/rand"

	"dynaminer/internal/core"

	"dynaminer/internal/ml"
	"dynaminer/internal/synth"
)

// Options scales the experiments. The zero value reproduces the paper's
// dataset sizes; tests shrink them.
type Options struct {
	// Seed anchors every random choice.
	Seed int64
	// TrainInfections / TrainBenign size the ground-truth corpus
	// (defaults 770 / 980, Table I).
	TrainInfections int
	TrainBenign     int
	// ValInfections / ValBenign size the independent validation set
	// (defaults 7489 / 1500, Table V).
	ValInfections int
	ValBenign     int
	// Folds is the cross-validation fold count (default 10).
	Folds int
	// Trees is N_t (default 20).
	Trees int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TrainInfections == 0 {
		o.TrainInfections = 770
	}
	if o.TrainBenign == 0 {
		o.TrainBenign = 980
	}
	if o.ValInfections == 0 {
		o.ValInfections = 7489
	}
	if o.ValBenign == 0 {
		o.ValBenign = 1500
	}
	if o.Folds == 0 {
		o.Folds = 10
	}
	if o.Trees == 0 {
		o.Trees = 20
	}
	return o
}

// GroundTruth generates the training corpus for the options.
func GroundTruth(o Options) []synth.Episode {
	o = o.withDefaults()
	return synth.GenerateCorpus(synth.Config{
		Seed:       o.Seed,
		Infections: o.TrainInfections,
		Benign:     o.TrainBenign,
	})
}

// ValidationSet generates the disjoint validation corpus (a different seed
// stream than the ground truth).
func ValidationSet(o Options) []synth.Episode {
	o = o.withDefaults()
	return synth.GenerateCorpus(synth.Config{
		Seed:       o.Seed + 7777,
		Infections: o.ValInfections,
		Benign:     o.ValBenign,
	})
}

// BuildDataset featurizes a labeled corpus into an ML design matrix
// (Stage 1's whole-trace representation).
func BuildDataset(eps []synth.Episode) *ml.Dataset {
	return core.OfflineDataset(eps)
}

// BuildMonitorDataset featurizes a corpus the way the on-the-wire stage
// sees it (clue-extracted potential-infection subsets).
func BuildMonitorDataset(eps []synth.Episode) *ml.Dataset {
	return core.MonitorDataset(eps)
}

// trainForest fits the paper-configuration ERF on the full dataset.
func trainForest(ds *ml.Dataset, o Options) (*ml.FlatForest, error) {
	return ml.TrainForest(ds, ml.ForestConfig{NumTrees: o.Trees, Seed: o.Seed})
}

// trainMonitorForest fits the deployment-matched ERF used by the case
// studies and the clue-threshold ablation.
func trainMonitorForest(o Options) (*ml.FlatForest, error) {
	o = o.withDefaults()
	return core.TrainMonitor(GroundTruth(o), core.TrainConfig{NumTrees: o.Trees, Seed: o.Seed})
}

func newRNG(o Options, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(o.Seed*1000003 + salt))
}
