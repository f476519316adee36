package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// ForestConfig parameterizes the ensemble per Section V-A: N_t trees, each
// trained on a bootstrap sample with N_f candidate features per split.
type ForestConfig struct {
	// NumTrees is N_t. The paper's best classifier uses 20.
	NumTrees int
	// MaxFeatures is N_f; 0 selects the paper's log2(NumFeatures)+1.
	MaxFeatures int
	// MinSamplesLeaf passes through to the trees.
	MinSamplesLeaf int
	// MaxDepth passes through to the trees (0 = unbounded).
	MaxDepth int
	// Seed makes training deterministic.
	Seed int64
}

// LogMaxFeatures is the paper's N_f rule: log2(numFeatures) + 1.
func LogMaxFeatures(numFeatures int) int {
	if numFeatures <= 1 {
		return 1
	}
	return int(math.Log2(float64(numFeatures))) + 1
}

// TrainForest trains the Ensemble Random Forest on ds and returns it in the
// one form every scoring path and the DMFB artifact use. The trees grow as
// linked nodes and are flattened into the slabs once, at the end.
func TrainForest(ds *Dataset, cfg ForestConfig) (*FlatForest, error) {
	roots, err := growForest(ds, cfg)
	if err != nil {
		return nil, err
	}
	return flatten(roots, cfg, ds.NumFeatures()), nil
}

// growForest grows the ensemble's trees, each on its own bootstrap sample,
// from one seeded RNG and one presort of ds.
func growForest(ds *Dataset, cfg ForestConfig) ([]*treeNode, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumTrees <= 0 {
		return nil, fmt.Errorf("ml: NumTrees must be positive, got %d", cfg.NumTrees)
	}
	maxF := cfg.MaxFeatures
	if maxF <= 0 {
		maxF = LogMaxFeatures(ds.NumFeatures())
	}
	g := newGrower(ds, treeConfig{
		maxFeatures:    maxF,
		minSamplesLeaf: cfg.MinSamplesLeaf,
		maxDepth:       cfg.MaxDepth,
	}, rand.New(rand.NewSource(cfg.Seed)))
	roots := make([]*treeNode, cfg.NumTrees)
	for i := range roots {
		g.bootstrap()
		roots[i] = g.tree()
	}
	return roots, nil
}
