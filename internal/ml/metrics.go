package ml

import "sort"

// Confusion is a binary confusion matrix with infection as the positive
// class.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction.
func (c *Confusion) Add(actual, predicted int) {
	switch {
	case actual == LabelInfection && predicted == LabelInfection:
		c.TP++
	case actual == LabelInfection && predicted == LabelBenign:
		c.FN++
	case actual == LabelBenign && predicted == LabelInfection:
		c.FP++
	default:
		c.TN++
	}
}

// TPR is the true positive rate (recall on infections).
func (c Confusion) TPR() float64 { return ratio(c.TP, c.TP+c.FN) }

// FPR is the false positive rate (benign flagged as infection).
func (c Confusion) FPR() float64 { return ratio(c.FP, c.FP+c.TN) }

// Precision is TP / (TP + FP).
func (c Confusion) Precision() float64 { return ratio(c.TP, c.TP+c.FP) }

// FScore is the harmonic mean of precision and recall.
func (c Confusion) FScore() float64 {
	p, r := c.Precision(), c.TPR()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ROCPoint is one operating point on a ROC curve.
type ROCPoint struct {
	Threshold float64
	FPR, TPR  float64
}

// ROC computes the ROC curve for infection scores against true labels.
// Points run from the strictest threshold (0,0) to the loosest (1,1).
func ROC(scores []float64, y []int) []ROCPoint {
	type sy struct {
		s float64
		y int
	}
	pairs := make([]sy, len(scores))
	pos, neg := 0, 0
	for i := range scores {
		pairs[i] = sy{scores[i], y[i]}
		if y[i] == LabelInfection {
			pos++
		} else {
			neg++
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].s > pairs[j].s })

	curve := []ROCPoint{{Threshold: 1.01, FPR: 0, TPR: 0}}
	tp, fp := 0, 0
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].s == pairs[i].s {
			if pairs[j].y == LabelInfection {
				tp++
			} else {
				fp++
			}
			j++
		}
		curve = append(curve, ROCPoint{
			Threshold: pairs[i].s,
			FPR:       ratio(fp, neg),
			TPR:       ratio(tp, pos),
		})
		i = j
	}
	return curve
}

// AUC computes the area under the ROC curve by the trapezoid rule.
func AUC(curve []ROCPoint) float64 {
	area := 0.0
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		area += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return area
}

// EvalResult aggregates the evaluation-metric row reported per classifier
// configuration (the columns of Table III).
type EvalResult struct {
	Confusion Confusion
	TPR       float64
	FPR       float64
	FScore    float64
	ROCArea   float64
}

// Evaluate scores X with the forest, thresholds at 0.5 for the confusion
// matrix, and computes TPR/FPR/F-score plus ROC area. Scoring runs through
// the tree-outer batch kernel, bit-identical to per-sample Score.
func Evaluate(f *FlatForest, X [][]float64, y []int) EvalResult {
	scores := f.ScoreBatch(nil, X)
	var c Confusion
	for i, s := range scores {
		pred := LabelBenign
		if s > 0.5 {
			pred = LabelInfection
		}
		c.Add(y[i], pred)
	}
	return EvalResult{
		Confusion: c,
		TPR:       c.TPR(),
		FPR:       c.FPR(),
		FScore:    c.FScore(),
		ROCArea:   AUC(ROC(scores, y)),
	}
}
