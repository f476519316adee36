package experiments

import (
	"fmt"
	"strings"

	"dynaminer/internal/detector"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
)

// EvasionRow measures DynaMiner against one Section VII evasion strategy.
type EvasionRow struct {
	Mode string
	// OfflineTPR is the whole-trace classifier's detection rate.
	OfflineTPR float64
	// WireTPR is the on-the-wire engine's detection rate (any alert).
	WireTPR float64
	// CluesFired is the average clue firings per episode on the wire.
	CluesFired float64
}

// EvasionResult quantifies the paper's Section VII evasion discussion.
type EvasionResult struct {
	Rows []EvasionRow
}

// Evasion generates infections under each Section VII evasion strategy and
// measures both detection paths: offline classification of the recorded
// conversation and on-the-wire detection (clue threshold 2). The paper
// argues qualitatively which moves hurt which path; this experiment puts
// numbers on it.
func Evasion(o Options, perMode int) (EvasionResult, error) {
	o = o.withDefaults()
	if perMode <= 0 {
		perMode = 100
	}
	offline, err := trainForest(BuildDataset(GroundTruth(o)), o)
	if err != nil {
		return EvasionResult{}, err
	}
	monitor, err := trainMonitorForest(o)
	if err != nil {
		return EvasionResult{}, err
	}

	rng := newRNG(o, 600)
	var res EvasionResult
	for _, mode := range synth.EvasionModes {
		// Generate every episode first (RNG order unchanged — only
		// generation consumes it), then score the offline path as one
		// batch before replaying the wire engines.
		txss := make([][]httpstream.Transaction, perMode)
		for i := 0; i < perMode; i++ {
			fam := synth.Families[i%len(synth.Families)].Name
			ep, err := synth.GenerateEvasiveInfection(mode, fam, corpusEpoch, rng)
			if err != nil {
				return EvasionResult{}, err
			}
			txss[i] = ep.Txs
		}
		offlineHits, wireHits, clues := 0, 0, 0
		for _, s := range batchScores(offline, txss) {
			if s > detector.ScoreThreshold {
				offlineHits++
			}
		}
		for i := 0; i < perMode; i++ {
			eng := detector.New(detector.Config{RedirectThreshold: 2, Shards: 1}, monitor)
			if len(eng.ProcessAll(txss[i])) > 0 {
				wireHits++
			}
			clues += eng.Stats().CluesFired
		}
		res.Rows = append(res.Rows, EvasionRow{
			Mode:       mode,
			OfflineTPR: float64(offlineHits) / float64(perMode),
			WireTPR:    float64(wireHits) / float64(perMode),
			CluesFired: float64(clues) / float64(perMode),
		})
	}
	return res, nil
}

// String renders the evasion table.
func (r EvasionResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %12s %10s %10s\n", "evasion", "offline-TPR", "wire-TPR", "clues/ep")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-20s %11.1f%% %9.1f%% %10.2f\n",
			row.Mode, 100*row.OfflineTPR, 100*row.WireTPR, row.CluesFired)
	}
	return sb.String()
}
