package experiments

import (
	"fmt"
	"strings"
	"time"

	"dynaminer/internal/detector"
	"dynaminer/internal/synth"
)

// LatencyResult measures how quickly the on-the-wire engine alerts inside
// an infection episode: the transactions observed and conversation time
// elapsed before the first alert, and how much of the post-download C&C
// dialogue the alert preempts.
type LatencyResult struct {
	Episodes        int
	Detected        int
	MedianTxBefore  int           // transactions processed before the first alert
	MedianElapsed   time.Duration // conversation time before the first alert
	MedianRemaining time.Duration // conversation time still ahead at alert time
}

// DetectionLatency replays fresh infection episodes through the engine and
// measures alert latency. It quantifies the "on-the-wire" value the paper
// claims over offline forensics: alerts land while the conversation is
// still unfolding, before the C&C dialogue completes.
func DetectionLatency(o Options, episodes int) (LatencyResult, error) {
	o = o.withDefaults()
	if episodes <= 0 {
		episodes = 100
	}
	forest, err := trainMonitorForest(o)
	if err != nil {
		return LatencyResult{}, err
	}
	rng := newRNG(o, 800)
	var (
		txBefore  []int
		elapsed   []time.Duration
		remaining []time.Duration
	)
	res := LatencyResult{Episodes: episodes}
	for i := 0; i < episodes; i++ {
		fam := synth.Families[i%len(synth.Families)].Name
		ep := synth.GenerateInfection(fam, corpusEpoch, rng)
		eng := detector.New(detector.Config{RedirectThreshold: 1, Shards: 1}, forest)
		start := ep.Txs[0].ReqTime
		end := ep.Txs[len(ep.Txs)-1].ReqTime
		alerted := false
		for j, tx := range ep.Txs {
			if len(eng.Process(tx)) == 0 {
				continue
			}
			alerted = true
			txBefore = append(txBefore, j+1)
			elapsed = append(elapsed, tx.ReqTime.Sub(start))
			remaining = append(remaining, end.Sub(tx.ReqTime))
			break
		}
		if alerted {
			res.Detected++
		}
	}
	res.MedianTxBefore = medianInt(txBefore)
	res.MedianElapsed = medianDuration(elapsed)
	res.MedianRemaining = medianDuration(remaining)
	return res, nil
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

func medianDuration(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	ints := make([]int, len(xs))
	for i, d := range xs {
		ints[i] = int(d)
	}
	return time.Duration(medianInt(ints))
}

// String renders the latency report.
func (r LatencyResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "detected %d/%d episodes on the wire\n", r.Detected, r.Episodes)
	fmt.Fprintf(&sb, "median alert after %d transactions / %s of conversation\n",
		r.MedianTxBefore, r.MedianElapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "median conversation remaining at alert time: %s (C&C dialogue preempted)\n",
		r.MedianRemaining.Round(time.Millisecond))
	return sb.String()
}
