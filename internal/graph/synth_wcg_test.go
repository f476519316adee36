package graph_test

import (
	"math/rand"
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

// TestTopologyIdentities holds the closed forms of f25, f16 and f18 on
// random multigraphs and on synthetic WCGs (CheckTopologyIdentities).
func TestTopologyIdentities(t *testing.T) {
	s := graph.NewScratch()
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(80)
		graph.CheckTopologyIdentities(t, graph.RandomMultigraph(rng, n, rng.Intn(4*n)), s)
	}
	for _, ep := range synth.GenerateCorpus(synth.Config{Seed: 43, Infections: 10, Benign: 10}) {
		graph.CheckTopologyIdentities(t, wcg.FromTransactions(ep.Txs).Graph(), s)
	}
}
