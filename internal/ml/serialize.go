package ml

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// The v1 JSON wire format, which models were saved in before DMFB and which
// LoadFlatForest still imports. Each tree is a preorder node array, so the
// format loads directly into the contiguous FlatForest slabs.
type forestWire struct {
	Version  int          `json:"version"`
	Features int          `json:"features"`
	Config   ForestConfig `json:"config"`
	Trees    []treeWire   `json:"trees"`
}

type treeWire struct {
	Nodes []nodeWire `json:"nodes"`
}

type nodeWire struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Leaf      bool    `json:"leaf,omitempty"`
	P0        float64 `json:"p0,omitempty"`
	P1        float64 `json:"p1,omitempty"`
}

const forestWireVersion = 1

// maxLegacyFeature bounds node feature indices in files that predate the
// features count (features == 0): real models have a few dozen features,
// and an absurd index would otherwise make every consumer that sizes a
// vector off the model allocate gigabytes.
const maxLegacyFeature = 1 << 16

// maxModelDepth bounds the tree depth any loader accepts. Trained CART
// trees peel at worst one sample per level, so real depth stays well under
// the training-set size; an adversarial node stream, by contrast, could
// nest millions of internal nodes and blow the goroutine stack of any
// recursive walk.
const maxModelDepth = 4096

// readForestWire decodes and structurally screens one wire record.
func readForestWire(r io.Reader) (forestWire, error) {
	var wire forestWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return wire, fmt.Errorf("ml: load forest: %w", err)
	}
	if wire.Version != forestWireVersion {
		return wire, fmt.Errorf("ml: unsupported forest version %d", wire.Version)
	}
	if len(wire.Trees) == 0 {
		return wire, fmt.Errorf("ml: forest file has no trees")
	}
	if wire.Features < 0 {
		return wire, fmt.Errorf("ml: negative feature count %d", wire.Features)
	}
	return wire, nil
}

// validateNode screens one wire node before it joins a model. A bad node
// that loads silently fails much later — a Feature beyond the trained
// dimensionality indexes out of range in the middle of a tree walk at
// serve time, a NaN threshold mis-routes every traversal (NaN compares
// false), out-of-range leaf probabilities corrupt the ensemble average —
// so every bound is enforced here, at load, with a clear error.
func validateNode(nw nodeWire, features, depth int) error {
	if depth > maxModelDepth {
		return fmt.Errorf("exceeds max depth %d", maxModelDepth)
	}
	if nw.Leaf {
		for _, p := range [2]float64{nw.P0, nw.P1} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				return fmt.Errorf("leaf probability %v outside [0, 1]", p)
			}
		}
		return nil
	}
	if nw.Feature < 0 {
		return fmt.Errorf("negative feature index %d", nw.Feature)
	}
	if features > 0 && nw.Feature >= features {
		return fmt.Errorf("feature index %d out of range for %d-feature model", nw.Feature, features)
	}
	if features <= 0 && nw.Feature >= maxLegacyFeature {
		return fmt.Errorf("feature index %d implausible for a model with no feature count", nw.Feature)
	}
	if math.IsNaN(nw.Threshold) || math.IsInf(nw.Threshold, 0) {
		return fmt.Errorf("non-finite threshold %v", nw.Threshold)
	}
	return nil
}
