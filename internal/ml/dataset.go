// Package ml implements the learning substrate DynaMiner trains on: CART
// decision trees, the Ensemble Random Forest (ERF) that averages per-tree
// class probabilities (Section V-A), gain-ratio feature ranking (Table IV),
// stratified k-fold cross-validation, and the TPR/FPR/F-score/ROC metrics
// of the evaluation section. Binary classification only: label 0 is benign,
// label 1 is infection.
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Labels used throughout.
const (
	LabelBenign    = 0
	LabelInfection = 1
	numClasses     = 2
)

// Dataset is a design matrix with binary labels.
type Dataset struct {
	X [][]float64
	Y []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Validate checks shape consistency, label range and that every cell is
// finite: a NaN has no place in a threshold order, and an infinite value
// yields an infinite split threshold the DMFB loader rightly rejects.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(d.X), len(d.Y))
	}
	if len(d.X) == 0 {
		return fmt.Errorf("ml: empty dataset")
	}
	width := len(d.X[0])
	for i, row := range d.X {
		if len(row) != width {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), width)
		}
		if d.Y[i] != LabelBenign && d.Y[i] != LabelInfection {
			return fmt.Errorf("ml: row %d has label %d", i, d.Y[i])
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: row %d column %d is %v", i, j, v)
			}
		}
	}
	return nil
}

// NumFeatures returns the width of the design matrix.
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Subset returns a view-dataset of the given row indices (rows are shared,
// not copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{X: make([][]float64, len(idx)), Y: make([]int, len(idx))}
	for i, j := range idx {
		sub.X[i] = d.X[j]
		sub.Y[i] = d.Y[j]
	}
	return sub
}

// SelectFeatures returns a copy of the dataset restricted to the given
// feature columns, in the given order.
func (d *Dataset) SelectFeatures(cols []int) *Dataset {
	sub := &Dataset{X: make([][]float64, len(d.X)), Y: make([]int, len(d.Y))}
	copy(sub.Y, d.Y)
	for i, row := range d.X {
		nr := make([]float64, len(cols))
		for k, c := range cols {
			nr[k] = row[c]
		}
		sub.X[i] = nr
	}
	return sub
}

// StratifiedKFold splits sample indices into k folds preserving the class
// balance of y. The shuffle is driven by rng for reproducibility. Each
// returned fold is a set of test indices; the remaining indices form the
// corresponding training set.
func StratifiedKFold(y []int, k int, rng *rand.Rand) [][]int {
	if k < 2 {
		k = 2
	}
	byClass := make(map[int][]int)
	for i, label := range y {
		byClass[label] = append(byClass[label], i)
	}
	folds := make([][]int, k)
	for label := 0; label < numClasses; label++ {
		idx := byClass[label]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for i, j := range idx {
			folds[i%k] = append(folds[i%k], j)
		}
	}
	return folds
}

// TrainIndices returns all indices not in test, given the total count.
func TrainIndices(n int, test []int) []int {
	inTest := make([]bool, n)
	for _, i := range test {
		inTest[i] = true
	}
	train := make([]int, 0, n-len(test))
	for i := 0; i < n; i++ {
		if !inTest[i] {
			train = append(train, i)
		}
	}
	return train
}
