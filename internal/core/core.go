// Package core wires DynaMiner's stages together: it owns the two training
// pipelines the paper defines — offline whole-trace classification
// (Stage 1) and deployment-matched monitoring, where the classifier learns
// on the same clue-extracted potential-infection WCG representation the
// on-the-wire engine scores (Stage 2). The public dynaminer package and
// the experiment harness both build on this package, so there is exactly
// one definition of "how DynaMiner trains".
package core

import (
	"fmt"

	"dynaminer/internal/detector"
	"dynaminer/internal/features"
	"dynaminer/internal/ml"
	"dynaminer/internal/synth"
	"dynaminer/internal/wcg"
)

// TrainConfig parameterizes both training pipelines. The zero value
// selects the paper's best configuration: N_t = 20 trees with
// N_f = log2(37)+1 candidate features per split.
type TrainConfig struct {
	NumTrees int
	Seed     int64
}

func (c TrainConfig) forestConfig() ml.ForestConfig {
	n := c.NumTrees
	if n == 0 {
		n = 20
	}
	return ml.ForestConfig{NumTrees: n, Seed: c.Seed}
}

// label converts a conversation's ground truth to an ML label.
func label(infection bool) int {
	if infection {
		return ml.LabelInfection
	}
	return ml.LabelBenign
}

// OfflineDataset featurizes whole conversations (Stage 1: one WCG per
// recorded trace). Vectors come from the batched extractor, so the whole
// dataset lands in one slab and the featurization scaffolding is built
// once instead of per conversation; each vector is bit-identical to
// features.Extract on the same WCG.
func OfflineDataset(eps []synth.Episode) *ml.Dataset {
	ws := make([]*wcg.WCG, len(eps))
	ds := &ml.Dataset{Y: make([]int, 0, len(eps))}
	for i := range eps {
		ws[i] = wcg.FromTransactions(eps[i].Txs)
		ds.Y = append(ds.Y, label(eps[i].Infection))
	}
	ds.X = features.ExtractBatch(ws)
	return ds
}

// monitorExtraction is the clue configuration used to build monitoring
// training sets: threshold 1 so every chain-plus-download subset is
// captured regardless of the deployment threshold.
var monitorExtraction = detector.Config{RedirectThreshold: 1}

// MonitorDataset featurizes conversations the way the on-the-wire stage
// sees them: each conversation is replayed through the clue heuristic and
// the resulting potential-infection WCG subsets (both the clue-time
// snapshot and the fully grown set) become samples. Conversations that
// never fire a clue contribute their whole trace, and benign conversations
// always also contribute theirs, so the negative class covers both
// representations.
func MonitorDataset(eps []synth.Episode) *ml.Dataset {
	ds := &ml.Dataset{}
	var ws []*wcg.WCG
	for i := range eps {
		y := label(eps[i].Infection)
		subs := detector.ClueSubsets(monitorExtraction, eps[i].Txs)
		for _, sub := range subs {
			ws = append(ws, sub)
			ds.Y = append(ds.Y, y)
		}
		if len(subs) == 0 || !eps[i].Infection {
			ws = append(ws, wcg.FromTransactions(eps[i].Txs))
			ds.Y = append(ds.Y, y)
		}
	}
	ds.X = features.ExtractBatch(ws)
	return ds
}

// TrainOffline fits the Stage 1 ERF on whole-trace WCGs.
func TrainOffline(eps []synth.Episode, cfg TrainConfig) (*ml.FlatForest, error) {
	forest, err := ml.TrainForest(OfflineDataset(eps), cfg.forestConfig())
	if err != nil {
		return nil, fmt.Errorf("core: train offline classifier: %w", err)
	}
	return forest, nil
}

// TrainMonitor fits the deployment-matched ERF for Stage 2.
func TrainMonitor(eps []synth.Episode, cfg TrainConfig) (*ml.FlatForest, error) {
	forest, err := ml.TrainForest(MonitorDataset(eps), cfg.forestConfig())
	if err != nil {
		return nil, fmt.Errorf("core: train monitoring classifier: %w", err)
	}
	return forest, nil
}
