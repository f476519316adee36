package ml

import (
	"math"
	"math/rand"
	"sort"
)

// entropy computes -Σ p log2 p over the class counts.
func entropy(counts [numClasses]int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// GainRatio computes the gain ratio of feature f on the dataset: the
// information gain of the best binary threshold split divided by the
// split's intrinsic value. This is the metric the paper ranks features
// with (Table IV); it penalizes splits that shatter the data.
func GainRatio(ds *Dataset, f int) float64 {
	total := ds.Len()
	if total == 0 {
		return 0
	}
	var parent [numClasses]int
	for _, y := range ds.Y[:total] {
		parent[y]++
	}
	parentH := entropy(parent, total)
	if parentH == 0 {
		return 0
	}

	vals := make([]float64, total)
	order := make([]int32, total)
	sortColumn(ds, f, vals, order)

	best := 0.0
	var leftCounts [numClasses]int
	for i := 0; i+1 < total; i++ {
		r := order[i]
		leftCounts[ds.Y[r]]++
		if vals[r] == vals[order[i+1]] {
			continue
		}
		nl := i + 1
		nr := total - nl
		var rightCounts [numClasses]int
		rightCounts[0] = parent[0] - leftCounts[0]
		rightCounts[1] = parent[1] - leftCounts[1]
		ig := parentH -
			(float64(nl)*entropy(leftCounts, nl)+float64(nr)*entropy(rightCounts, nr))/float64(total)
		pl := float64(nl) / float64(total)
		iv := -pl*math.Log2(pl) - (1-pl)*math.Log2(1-pl)
		if iv <= 0 {
			continue
		}
		if gr := ig / iv; gr > best {
			best = gr
		}
	}
	return best
}

// FeatureRank is one row of a Table IV-style ranking: the per-fold mean and
// standard deviation of a feature's gain ratio and of its rank position.
type FeatureRank struct {
	Feature       int
	GainRatioMean float64
	GainRatioStd  float64
	RankMean      float64
	RankStd       float64
}

// RankFeaturesCV ranks every feature by gain ratio with k-fold
// cross-validation: gain ratios are computed on each training fold, ranks
// are assigned per fold (1 = best), and means/standard deviations are
// aggregated. The result is sorted by mean rank ascending.
func RankFeaturesCV(ds *Dataset, k int, rng *rand.Rand) []FeatureRank {
	nf := ds.NumFeatures()
	folds := StratifiedKFold(ds.Y, k, rng)
	grs := make([][]float64, nf)   // per-feature gain ratios across folds
	ranks := make([][]float64, nf) // per-feature ranks across folds

	for _, test := range folds {
		train := ds.Subset(TrainIndices(ds.Len(), test))
		fold := make([]float64, nf)
		order := make([]int, nf)
		for f := 0; f < nf; f++ {
			fold[f] = GainRatio(train, f)
			order[f] = f
		}
		sort.SliceStable(order, func(a, b int) bool { return fold[order[a]] > fold[order[b]] })
		for pos, f := range order {
			grs[f] = append(grs[f], fold[f])
			ranks[f] = append(ranks[f], float64(pos+1))
		}
	}

	out := make([]FeatureRank, nf)
	for f := 0; f < nf; f++ {
		gm, gs := meanStd(grs[f])
		rm, rs := meanStd(ranks[f])
		out[f] = FeatureRank{Feature: f, GainRatioMean: gm, GainRatioStd: gs, RankMean: rm, RankStd: rs}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].RankMean < out[b].RankMean })
	return out
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
