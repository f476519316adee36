package experiments

import (
	"fmt"
	"strings"

	"dynaminer/internal/detector"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
)

// CrossFamilyRow measures recall on one family when the classifier never
// saw that family during training.
type CrossFamilyRow struct {
	HeldOut  string
	Episodes int
	Detected int
	TPR      float64
}

// CrossFamilyResult is the A9 extension: leave-one-family-out
// generalization, probing the paper's claim that payload-agnostic
// conversation dynamics catch *unknown* malware — here, whole unknown
// exploit-kit families.
type CrossFamilyResult struct {
	Rows []CrossFamilyRow
}

// CrossFamily trains once per family on a corpus with that family removed
// and measures recall on fresh episodes of the held-out family.
func CrossFamily(o Options, perFamily int) (CrossFamilyResult, error) {
	o = o.withDefaults()
	if perFamily <= 0 {
		perFamily = 50
	}
	full := GroundTruth(o)
	rng := newRNG(o, 1000)

	var res CrossFamilyResult
	for _, fam := range synth.Families {
		train := make([]synth.Episode, 0, len(full))
		for i := range full {
			if full[i].Family != fam.Name {
				train = append(train, full[i])
			}
		}
		forest, err := trainForest(BuildDataset(train), o)
		if err != nil {
			return CrossFamilyResult{}, fmt.Errorf("cross-family %s: %w", fam.Name, err)
		}
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
		res.Rows = append(res.Rows, CrossFamilyRow{
			HeldOut:  fam.Name,
			Episodes: perFamily,
			Detected: detected,
			TPR:      float64(detected) / float64(perFamily),
		})
	}
	return res, nil
}

// MinTPR returns the worst held-out-family recall.
func (r CrossFamilyResult) MinTPR() float64 {
	minT := 1.0
	for _, row := range r.Rows {
		if row.TPR < minT {
			minT = row.TPR
		}
	}
	return minT
}

// String renders the table.
func (r CrossFamilyResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %9s %9s %8s\n", "held out", "episodes", "detected", "TPR")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s %9d %9d %7.1f%%\n", row.HeldOut, row.Episodes, row.Detected, 100*row.TPR)
	}
	return sb.String()
}
