package experiments

import (
	"dynaminer/internal/features"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/ml"
	"dynaminer/internal/wcg"
)

// episodeWCGs materializes one WCG per transaction stream, preserving
// input order.
func episodeWCGs(txss [][]httpstream.Transaction) []*wcg.WCG {
	ws := make([]*wcg.WCG, len(txss))
	for i, txs := range txss {
		ws[i] = wcg.FromTransactions(txs)
	}
	return ws
}

// batchScores featurizes every transaction stream through the batched
// extractor and scores the whole batch with the forest's tree-outer
// kernel. Every score is bit-identical to the per-episode
// forest.Score(features.Extract(wcg.FromTransactions(txs))) it replaces —
// the experiment drivers rely on that to keep their published numbers
// unchanged — but the featurization scaffolding and model dispatch are
// built once per batch instead of once per episode.
func batchScores(forest *ml.FlatForest, txss [][]httpstream.Transaction) []float64 {
	return forest.ScoreBatch(nil, features.ExtractBatch(episodeWCGs(txss)))
}
