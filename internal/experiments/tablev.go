package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"dynaminer/internal/detector"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/vtsim"
)

// TableVRow is one system's row of the independent-validation comparison.
type TableVRow struct {
	System           string
	BenignTested     int
	InfectionTested  int
	BenignCorrect    int
	InfectionCorrect int
	FalsePositives   int
	FalseNegatives   int
	Timeouts         int // AV ensemble only
}

// TableVResult is the regenerated Table V.
type TableVResult struct {
	Rows []TableVRow
}

// TableV trains the ERF on the ground-truth corpus and compares it against
// the simulated AV ensemble on a disjoint validation set. The AV ensemble
// scans each infection's primary payload at its (deterministic per-sample)
// in-the-wild age, reproducing the signature-lag disadvantage the paper
// measures.
func TableV(o Options) (TableVResult, error) {
	o = o.withDefaults()
	train := BuildDataset(GroundTruth(o))
	forest, err := trainForest(train, o)
	if err != nil {
		return TableVResult{}, err
	}
	val := ValidationSet(o)

	av := vtsim.Default()
	scanTime := time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)

	// Featurize and score the whole validation set as one batch.
	txss := make([][]httpstream.Transaction, len(val))
	for i := range val {
		txss[i] = val[i].Txs
	}
	scores := batchScores(forest, txss)

	dm := TableVRow{System: "DynaMiner"}
	vt := TableVRow{System: "VirusTotal(sim)"}
	for i := range val {
		ep := &val[i]
		pred := scores[i] > detector.ScoreThreshold

		id := fmt.Sprintf("val-%s-%d", ep.Family, i)
		// Deterministic per-sample in-the-wild age in [0, 90) days.
		age := time.Duration(sampleUnit(id) * 90 * 24 * float64(time.Hour))
		verdict := av.Scan(id, ep.Infection, scanTime.Add(-age), scanTime)
		flagged := verdict.Flagged(av.Threshold)

		if ep.Infection {
			dm.InfectionTested++
			vt.InfectionTested++
			if pred {
				dm.InfectionCorrect++
			} else {
				dm.FalseNegatives++
			}
			if flagged {
				vt.InfectionCorrect++
			} else {
				vt.FalseNegatives++
				if verdict.TimedOut {
					vt.Timeouts++
				}
			}
		} else {
			dm.BenignTested++
			vt.BenignTested++
			if pred {
				dm.FalsePositives++
			} else {
				dm.BenignCorrect++
			}
			if flagged {
				vt.FalsePositives++
			} else {
				vt.BenignCorrect++
			}
		}
	}
	return TableVResult{Rows: []TableVRow{dm, vt}}, nil
}

// sampleUnit maps an id to a deterministic uniform in [0,1).
func sampleUnit(id string) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// InfectionAccuracy returns the infection classification rate of a row.
func (r TableVRow) InfectionAccuracy() float64 {
	if r.InfectionTested == 0 {
		return 0
	}
	return float64(r.InfectionCorrect) / float64(r.InfectionTested)
}

// BenignAccuracy returns the benign classification rate of a row.
func (r TableVRow) BenignAccuracy() float64 {
	if r.BenignTested == 0 {
		return 0
	}
	return float64(r.BenignCorrect) / float64(r.BenignTested)
}

// String renders Table V.
func (r TableVResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %22s %24s %6s %6s %9s\n",
		"System", "Benign correct", "Infection correct", "FP", "FN", "Timeouts")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-16s %12d/%d (%4.1f%%) %13d/%d (%5.2f%%) %6d %6d %9d\n",
			row.System,
			row.BenignCorrect, row.BenignTested, 100*row.BenignAccuracy(),
			row.InfectionCorrect, row.InfectionTested, 100*row.InfectionAccuracy(),
			row.FalsePositives, row.FalseNegatives, row.Timeouts)
	}
	return sb.String()
}
