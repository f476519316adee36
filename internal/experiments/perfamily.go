package experiments

import (
	"fmt"
	"strings"

	"dynaminer/internal/detector"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
)

// FamilyRow is one family's detection measurement.
type FamilyRow struct {
	Family     string
	Episodes   int
	Detected   int
	OfflineTPR float64
}

// PerFamilyResult breaks the offline classifier's recall down by
// exploit-kit family — an extension the paper's per-family dataset makes
// natural but that its evaluation aggregates away.
type PerFamilyResult struct {
	Rows []FamilyRow
}

// PerFamily trains on the ground truth and measures recall per family on
// freshly generated episodes.
func PerFamily(o Options, perFamily int) (PerFamilyResult, error) {
	o = o.withDefaults()
	if perFamily <= 0 {
		perFamily = 50
	}
	forest, err := trainForest(BuildDataset(GroundTruth(o)), o)
	if err != nil {
		return PerFamilyResult{}, err
	}
	rng := newRNG(o, 700)
	var res PerFamilyResult
	for _, fam := range synth.Families {
		// Generate first (preserving RNG order), then featurize and score
		// the whole family as one batch.
		txss := make([][]httpstream.Transaction, perFamily)
		for i := 0; i < perFamily; i++ {
			txss[i] = synth.GenerateInfection(fam.Name, corpusEpoch, rng).Txs
		}
		detected := 0
		for _, s := range batchScores(forest, txss) {
			if s > detector.ScoreThreshold {
				detected++
			}
		}
		res.Rows = append(res.Rows, FamilyRow{
			Family:     fam.Name,
			Episodes:   perFamily,
			Detected:   detected,
			OfflineTPR: float64(detected) / float64(perFamily),
		})
	}
	return res, nil
}

// String renders the per-family table.
func (r PerFamilyResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %9s %9s %8s\n", "family", "episodes", "detected", "TPR")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s %9d %9d %7.1f%%\n", row.Family, row.Episodes, row.Detected, 100*row.OfflineTPR)
	}
	return sb.String()
}
