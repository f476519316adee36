package graph_test

import (
	"sort"
	"testing"

	"dynaminer/internal/graph"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
	"dynaminer/internal/wcg"
)

// TestScratchMatchesPlainOnSynthWCGs holds every Scratch kernel to the
// plain oracle bit for bit on the graphs the feature extractor actually
// sees: the WCG of every prefix of synthetic infection and benign
// episodes, appended in request-time order as the detector grows a
// watched graph, plus whole WCGs of a second corpus. One Scratch is
// carried across all of them, as one shard carries it across clients.
func TestScratchMatchesPlainOnSynthWCGs(t *testing.T) {
	s := graph.NewScratch()
	for _, ep := range synth.GenerateCorpus(synth.Config{Seed: 29, Infections: 6, Benign: 5}) {
		txs := make([]httpstream.Transaction, len(ep.Txs))
		copy(txs, ep.Txs)
		sort.SliceStable(txs, func(i, j int) bool { return txs[i].ReqTime.Before(txs[j].ReqTime) })
		for i := range txs {
			graph.CheckScratchMatches(t, wcg.FromTransactions(txs[:i+1]).Graph(), s)
		}
	}
	for _, ep := range synth.GenerateCorpus(synth.Config{Seed: 41, Infections: 5, Benign: 5}) {
		graph.CheckScratchMatches(t, wcg.FromTransactions(ep.Txs).Graph(), s)
	}
}
