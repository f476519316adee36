package features

import (
	"dynaminer/internal/graph"
	"dynaminer/internal/wcg"
)

// ExtractBatch materializes many WCG feature vectors into one contiguous
// []float64 slab (stride NumFeatures), the layout ml.FlatForest.ScoreBatch
// consumes. One Cache and one graph.Scratch are Reset-reused across every
// episode: the per-episode NewCache + private-scratch churn of calling
// Extract in a loop is the single largest allocation source in the offline
// pipeline. The slab belongs to the caller, so the returned views may be
// retained indefinitely (dataset builders).
func ExtractBatch(ws []*wcg.WCG) [][]float64 {
	slab := make([]float64, len(ws)*NumFeatures)
	views := make([][]float64, len(ws))
	scratch := graph.NewScratch()
	var cache Cache
	for i, w := range ws {
		cache.Reset(w, scratch)
		v := slab[i*NumFeatures : (i+1)*NumFeatures : (i+1)*NumFeatures]
		views[i] = cache.FeaturesInto(v)
	}
	return views
}
