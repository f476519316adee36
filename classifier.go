package dynaminer

import (
	"fmt"
	"io"
	"os"

	"dynaminer/internal/core"
	"dynaminer/internal/detector"
	"dynaminer/internal/features"
	"dynaminer/internal/ml"
)

// TrainConfig parameterizes classifier training. The zero value selects
// the paper's best configuration: N_t = 20 trees with N_f = log2(37)+1
// candidate features per split.
type TrainConfig struct {
	// NumTrees is the ensemble size (N_t); 0 selects 20.
	NumTrees int
	// Seed drives bootstrap and feature subsampling; equal seeds and data
	// give identical classifiers.
	Seed int64
}

// Classifier is a trained ERF model over the 37 WCG features, held in the
// flat struct-of-arrays form that training produces, the DMFB artifact
// stores, and the detector and every scoring method traverse.
type Classifier struct {
	flat *ml.FlatForest
}

// Train fits an ERF classifier on a labeled episode corpus (Stage 1:
// offline whole-trace classification).
func Train(episodes []Episode, cfg TrainConfig) (*Classifier, error) {
	forest, err := core.TrainOffline(episodes, core.TrainConfig{NumTrees: cfg.NumTrees, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Classifier{flat: forest}, nil
}

// TrainForMonitoring fits an ERF on the corpus as the on-the-wire stage
// sees it: every episode is replayed through the clue heuristic and the
// potential-infection WCG subsets become the training samples, so the
// trained model scores exactly the WCG representation NewMonitor builds.
// Use Train for offline (whole-trace) classification and this for live
// deployment.
func TrainForMonitoring(episodes []Episode, cfg TrainConfig) (*Classifier, error) {
	forest, err := core.TrainMonitor(episodes, core.TrainConfig{NumTrees: cfg.NumTrees, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Classifier{flat: forest}, nil
}

// EpisodeDataset converts a labeled corpus into a feature matrix.
func EpisodeDataset(episodes []Episode) *ml.Dataset {
	return core.OfflineDataset(episodes)
}

// Score returns the ensemble-averaged probability that the WCG is a
// malware infection.
func (c *Classifier) Score(w *WCG) float64 {
	return c.flat.Score(features.Extract(w))
}

// IsInfection classifies the WCG at the on-the-wire engine's decision
// threshold (detector.ScoreThreshold, 0.5): an infection scores above it.
func (c *Classifier) IsInfection(w *WCG) bool { return c.Score(w) > detector.ScoreThreshold }

// FlatForest exposes the ensemble every scoring path uses.
func (c *Classifier) FlatForest() *ml.FlatForest { return c.flat }

// scorer is the model handed to detector engines.
func (c *Classifier) scorer() detector.Scorer { return c.flat }

// SaveBlob persists the trained model as the DMFB flat binary blob — the
// one model artifact written, which Load reads back without parsing.
func (c *Classifier) SaveBlob(w io.Writer) error { return c.flat.SaveFlatBlob(w) }

// SaveBlobFile persists the flat binary blob to a file path.
func (c *Classifier) SaveBlobFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save model blob: %w", err)
	}
	defer f.Close()
	return c.SaveBlob(f)
}

// Load reads a DMFB model written by SaveBlob.
func Load(r io.Reader) (*Classifier, error) {
	flat, err := ml.LoadFlatBlob(r)
	if err != nil {
		return nil, err
	}
	return &Classifier{flat: flat}, nil
}

// LoadFile reads a DMFB model from a file path.
func LoadFile(path string) (*Classifier, error) {
	flat, err := ml.LoadModelFile(path)
	if err != nil {
		return nil, err
	}
	return &Classifier{flat: flat}, nil
}

// ModelInfo summarizes a trained model's shape and configuration.
type ModelInfo struct {
	Trees    int
	Nodes    int
	Features int
	Config   ml.ForestConfig
}

// Info reports the model's shape and training configuration.
func (c *Classifier) Info() ModelInfo {
	return ModelInfo{
		Trees:    c.flat.NumTrees(),
		Nodes:    c.flat.NumNodes(),
		Features: c.flat.NumFeatures(),
		Config:   c.flat.Config(),
	}
}
