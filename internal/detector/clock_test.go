package detector

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
)

// stepClock advances a fixed step on every reading, so each timed stage
// appears to take a whole number of steps of wall time. It is not locked:
// drive it from one goroutine.
type stepClock struct {
	t    time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

// TestUntimedEngineNeverReadsClock pins that an engine with neither
// Metrics nor Tracer set never consults its clock, and classifies every
// update of the watch.
func TestUntimedEngineNeverReadsClock(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	e.shards[0].st.now = func() time.Time { panic("clock consulted by an untimed engine") }
	for _, tx := range relatedFollowUp(4) {
		e.Process(tx)
	}
	st := e.Stats()
	if st.Panics != 0 || st.Classifications != 6 {
		t.Fatalf("stats %+v, want every update classified without a clock read", st)
	}
}

// clockedRun is what one engine made of the verdict stream.
type clockedRun struct {
	alerts  []Alert
	records []obs.AlertRecord
	metrics map[string]obs.MetricSnapshot
}

// runClocked streams txs one at a time through a fully instrumented
// two-shard engine whose clock advances step per reading. Process is
// called from this goroutine only, so the unlocked clock is safe.
func runClocked(t *testing.T, scorer Scorer, txs []httpstream.Transaction, step time.Duration) clockedRun {
	t.Helper()
	reg := obs.NewRegistry()
	var journal bytes.Buffer
	clock := &stepClock{t: t0, step: step}
	e := New(Config{
		Shards:            2,
		RedirectThreshold: 1,
		Now:               clock.Now,
		Metrics:           reg,
		Journal:           obs.NewJournalWriter(&journal),
		Tracer:            obs.NewTracer(reg, 2),
	}, scorer)
	var run clockedRun
	for _, tx := range txs {
		run.alerts = append(run.alerts, e.Process(tx)...)
	}
	recs, err := obs.ReadJournal(&journal)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].TraceID = 0 // trace ids number every traced transaction, kept or not
	}
	run.records = recs
	run.metrics = map[string]obs.MetricSnapshot{}
	for _, ms := range reg.Snapshot() {
		run.metrics[ms.Name] = ms
	}
	return run
}

// TestVerdictsIndependentOfClock pins that the engine's output is a
// function of its input alone: the same interleaved infection and benign
// stream through an engine whose clock reads 1 ns per call and one whose
// clock reads 1 s per call yields the same alerts, the same journal
// records (trace ids aside) and the same value on every registry counter
// and gauge. The clock reaches the latency histograms only, and there it
// is read where the engine says: under the slow clock every score spans
// exactly one step and every classification at least the score's two
// readings.
func TestVerdictsIndependentOfClock(t *testing.T) {
	txs := interleaved(relatedFollowUp(4))
	txs = append(txs, interleavedCorpus(t, 6)...)
	model := trainDimForest(t, 37, 31)

	fast := runClocked(t, model, txs, time.Nanosecond)
	slow := runClocked(t, model, txs, time.Second)

	if len(fast.alerts) == 0 || len(fast.records) != len(fast.alerts) {
		t.Fatalf("%d alerts, %d journal records: the comparison is vacuous", len(fast.alerts), len(fast.records))
	}
	requireSameAlerts(t, "1 s clock vs 1 ns clock", slow.alerts, fast.alerts)
	if !reflect.DeepEqual(slow.records, fast.records) {
		t.Fatalf("journal records depend on the clock:\n1 s:  %+v\n1 ns: %+v", slow.records, fast.records)
	}

	compared := 0
	for name, f := range fast.metrics {
		s := slow.metrics[name]
		switch f.Type {
		case "counter", "gauge":
			if s.Value != f.Value {
				t.Errorf("%s = %d under the 1 s clock, %d under the 1 ns clock", name, s.Value, f.Value)
			}
			compared++
		case "histogram":
			if s.Count != f.Count {
				t.Errorf("%s observed %d times under the 1 s clock, %d under the 1 ns clock", name, s.Count, f.Count)
			}
		}
	}
	if len(slow.metrics) != len(fast.metrics) || compared == 0 {
		t.Fatalf("registries differ in shape (%d vs %d metrics) or hold no counter", len(slow.metrics), len(fast.metrics))
	}

	classifications := slow.metrics["dynaminer_detector_classifications_total"].Value
	score := slow.metrics["dynaminer_ml_score_seconds"]
	if classifications == 0 || score.Count != classifications || score.Sum != float64(classifications) {
		t.Fatalf("score histogram %d observations summing to %v s, want one 1 s step for each of %d classifications",
			score.Count, score.Sum, classifications)
	}
	var classify obs.MetricSnapshot
	for name, ms := range slow.metrics {
		if strings.HasPrefix(name, "dynaminer_detector_classify_") {
			classify.Count += ms.Count
			classify.Sum += ms.Sum
		}
	}
	if classify.Count != classifications || classify.Sum < 2*float64(classifications) ||
		classify.Sum != float64(int64(classify.Sum)) {
		t.Fatalf("classify histograms %d observations summing to %v s, want %d, each a whole number of 1 s steps, at least 2",
			classify.Count, classify.Sum, classifications)
	}
	t.Logf("%d transactions: %d alerts, %d classifications, %d counters and gauges equal",
		len(txs), len(fast.alerts), classifications, compared)
}
