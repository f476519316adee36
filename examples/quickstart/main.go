// Quickstart: generate a labeled corpus, train the ERF classifier, and
// classify unseen conversations — the paper's Stage 1 in a dozen lines.
package main

import (
	"fmt"
	"log"

	"dynaminer"
)

func main() {
	// 1. Ground truth: a corpus statistically equivalent to the paper's
	//    770 infection + 980 benign traces (scaled down for speed here).
	train := dynaminer.Corpus(dynaminer.CorpusConfig{Seed: 1, Infections: 300, Benign: 380})

	// 2. Train the Ensemble Random Forest (N_t = 20, N_f = log2(37)+1).
	clf, err := dynaminer.Train(train, dynaminer.TrainConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Classify conversations the model has never seen.
	unseen := dynaminer.Corpus(dynaminer.CorpusConfig{Seed: 42, Infections: 10, Benign: 10})
	correct := 0
	for i := range unseen {
		ep := &unseen[i]
		w := dynaminer.EpisodeWCG(ep)
		score, infected := clf.Score(w), clf.IsInfection(w)
		verdict := "benign   "
		if infected {
			verdict = "INFECTION"
		}
		truth := "benign"
		if ep.Infection {
			truth = ep.Family
		}
		if infected == ep.Infection {
			correct++
		}
		fmt.Printf("%s score=%.2f  hosts=%-3d edges=%-4d truth=%s\n",
			verdict, score, w.Order(), w.Size(), truth)
	}
	fmt.Printf("\n%d/%d correct on unseen conversations\n", correct, len(unseen))
}
