package ml

import (
	"math/rand"
)

// CrossValidate runs stratified k-fold cross-validation of the forest
// configuration on ds, pooling the per-fold predictions into one aggregate
// EvalResult — the protocol behind Table III and Figure 10.
func CrossValidate(ds *Dataset, cfg ForestConfig, k int, rng *rand.Rand) (EvalResult, error) {
	if err := ds.Validate(); err != nil {
		return EvalResult{}, err
	}
	folds := StratifiedKFold(ds.Y, k, rng)

	var (
		allScores []float64
		allLabels []int
		c         Confusion
	)
	for fi, test := range folds {
		if len(test) == 0 {
			continue
		}
		train := ds.Subset(TrainIndices(ds.Len(), test))
		foldCfg := cfg
		foldCfg.Seed = cfg.Seed + int64(fi)
		f, err := TrainForest(train, foldCfg)
		if err != nil {
			return EvalResult{}, err
		}
		for _, i := range test {
			s := f.Score(ds.X[i])
			allScores = append(allScores, s)
			allLabels = append(allLabels, ds.Y[i])
			pred := LabelBenign
			if s > 0.5 {
				pred = LabelInfection
			}
			c.Add(ds.Y[i], pred)
		}
	}
	return EvalResult{
		Confusion: c,
		TPR:       c.TPR(),
		FPR:       c.FPR(),
		FScore:    c.FScore(),
		ROCArea:   AUC(ROC(allScores, allLabels)),
	}, nil
}

// CrossValidateVoting is CrossValidate with the majority-vote rule instead
// of probability averaging, for the voting ablation. ROC area is computed
// from vote fractions.
func CrossValidateVoting(ds *Dataset, cfg ForestConfig, k int, rng *rand.Rand) (EvalResult, error) {
	if err := ds.Validate(); err != nil {
		return EvalResult{}, err
	}
	folds := StratifiedKFold(ds.Y, k, rng)
	var (
		allScores []float64
		allLabels []int
		c         Confusion
	)
	for fi, test := range folds {
		if len(test) == 0 {
			continue
		}
		train := ds.Subset(TrainIndices(ds.Len(), test))
		foldCfg := cfg
		foldCfg.Seed = cfg.Seed + int64(fi)
		f, err := TrainForest(train, foldCfg)
		if err != nil {
			return EvalResult{}, err
		}
		for _, i := range test {
			_, votes, trees := f.ScoreWithVotes(ds.X[i])
			allScores = append(allScores, float64(votes)/float64(trees))
			allLabels = append(allLabels, ds.Y[i])
			pred := LabelBenign
			if 2*votes > trees {
				pred = LabelInfection
			}
			c.Add(ds.Y[i], pred)
		}
	}
	return EvalResult{
		Confusion: c,
		TPR:       c.TPR(),
		FPR:       c.FPR(),
		FScore:    c.FScore(),
		ROCArea:   AUC(ROC(allScores, allLabels)),
	}, nil
}
