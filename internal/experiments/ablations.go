package experiments

import (
	"fmt"
	"strings"

	"dynaminer/internal/detector"
	"dynaminer/internal/ml"
	"dynaminer/internal/synth"
)

// ------------------------------------------------- A1: clue threshold

// ClueThresholdRow measures the on-the-wire engine at one redirect
// threshold L.
type ClueThresholdRow struct {
	Threshold     int
	DetectionRate float64 // infection episodes with at least one alert
	FalseAlerts   float64 // benign episodes with at least one alert
	CluesPerEp    float64 // clue-inference firings per episode
}

// ClueThresholdResult is the A1 ablation output.
type ClueThresholdResult struct {
	Rows []ClueThresholdRow
}

// AblationClueThreshold sweeps the clue redirect threshold L in [1,6],
// replaying fresh infection and benign episodes through the engine per
// setting. It exposes the coverage/noise trade-off the paper fixes at 3.
func AblationClueThreshold(o Options, episodesPerClass int) (ClueThresholdResult, error) {
	o = o.withDefaults()
	forest, err := trainMonitorForest(o)
	if err != nil {
		return ClueThresholdResult{}, err
	}
	if episodesPerClass <= 0 {
		episodesPerClass = 100
	}
	rng := newRNG(o, 301)
	var infEps, benEps []synth.Episode
	for i := 0; i < episodesPerClass; i++ {
		fam := synth.Families[i%len(synth.Families)].Name
		infEps = append(infEps, synth.GenerateInfection(fam, corpusEpoch, rng))
		benEps = append(benEps, synth.GenerateBenign("search", corpusEpoch, rng))
	}
	var res ClueThresholdResult
	for l := 1; l <= 6; l++ {
		detected, falsed, clues := 0, 0, 0
		for i := range infEps {
			eng := detector.New(detector.Config{RedirectThreshold: l, Shards: 1}, forest)
			if len(eng.ProcessAll(infEps[i].Txs)) > 0 {
				detected++
			}
			clues += eng.Stats().CluesFired
		}
		for i := range benEps {
			eng := detector.New(detector.Config{RedirectThreshold: l, Shards: 1}, forest)
			if len(eng.ProcessAll(benEps[i].Txs)) > 0 {
				falsed++
			}
		}
		res.Rows = append(res.Rows, ClueThresholdRow{
			Threshold:     l,
			DetectionRate: float64(detected) / float64(episodesPerClass),
			FalseAlerts:   float64(falsed) / float64(episodesPerClass),
			CluesPerEp:    float64(clues) / float64(episodesPerClass),
		})
	}
	return res, nil
}

// String renders the sweep.
func (r ClueThresholdResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%9s %10s %12s %10s\n", "threshold", "detection", "false-alert", "clues/ep")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%9d %9.1f%% %11.1f%% %10.2f\n",
			row.Threshold, 100*row.DetectionRate, 100*row.FalseAlerts, row.CluesPerEp)
	}
	return sb.String()
}

// --------------------------------------------------- A2: tree count

// TreeCountRow is one N_t setting of the A2 sweep.
type TreeCountRow struct {
	Trees   int
	TPR     float64
	FPR     float64
	ROCArea float64
}

// TreeCountResult is the A2 ablation output.
type TreeCountResult struct {
	Rows []TreeCountRow
}

// AblationTrees sweeps the ensemble size N_t under cross-validation,
// showing the saturation around the paper's choice of 20.
func AblationTrees(ds *ml.Dataset, o Options) (TreeCountResult, error) {
	o = o.withDefaults()
	var res TreeCountResult
	for _, n := range []int{1, 5, 10, 20, 40, 80} {
		ev, err := ml.CrossValidate(ds, ml.ForestConfig{NumTrees: n, Seed: o.Seed}, o.Folds, newRNG(o, int64(400+n)))
		if err != nil {
			return TreeCountResult{}, err
		}
		res.Rows = append(res.Rows, TreeCountRow{Trees: n, TPR: ev.TPR, FPR: ev.FPR, ROCArea: ev.ROCArea})
	}
	return res, nil
}

// String renders the sweep.
func (r TreeCountResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s %7s %7s %9s\n", "trees", "TPR", "FPR", "ROC Area")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%6d %7.3f %7.3f %9.3f\n", row.Trees, row.TPR, row.FPR, row.ROCArea)
	}
	return sb.String()
}

// ------------------------------------------------ A3: voting rule

// VotingRow compares one combination rule.
type VotingRow struct {
	Rule    string
	TPR     float64
	FPR     float64
	FScore  float64
	ROCArea float64
}

// VotingResult is the A3 ablation output.
type VotingResult struct {
	Rows []VotingRow
}

// AblationVoting contrasts the paper's probability-averaging ERF against
// standard majority voting under identical training.
func AblationVoting(ds *ml.Dataset, o Options) (VotingResult, error) {
	o = o.withDefaults()
	cfg := ml.ForestConfig{NumTrees: o.Trees, Seed: o.Seed}
	avg, err := ml.CrossValidate(ds, cfg, o.Folds, newRNG(o, 500))
	if err != nil {
		return VotingResult{}, err
	}
	vote, err := ml.CrossValidateVoting(ds, cfg, o.Folds, newRNG(o, 500))
	if err != nil {
		return VotingResult{}, err
	}
	return VotingResult{Rows: []VotingRow{
		{Rule: "prob-averaging", TPR: avg.TPR, FPR: avg.FPR, FScore: avg.FScore, ROCArea: avg.ROCArea},
		{Rule: "majority-vote", TPR: vote.TPR, FPR: vote.FPR, FScore: vote.FScore, ROCArea: vote.ROCArea},
	}}, nil
}

// String renders the comparison.
func (r VotingResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-15s %7s %7s %8s %9s\n", "rule", "TPR", "FPR", "F-score", "ROC Area")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-15s %7.3f %7.3f %8.3f %9.3f\n", row.Rule, row.TPR, row.FPR, row.FScore, row.ROCArea)
	}
	return sb.String()
}
