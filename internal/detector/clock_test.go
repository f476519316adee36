package detector_test

// The wire path has one timer, the tracer's clock (obs.SetClock replaces
// it here). TestVerdictsIndependentOfClock steps it and pins what it
// reaches: stage histograms and span stamps, never verdicts, and nothing
// at all when nothing traces.

import (
	"bytes"
	"net/netip"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"dynaminer"
	"dynaminer/internal/detector"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
	"dynaminer/internal/pcap"
)

// stepClock advances a fixed step on every reading, so each timed unit
// appears to take a whole number of steps.
type stepClock struct {
	ns   atomic.Int64
	step time.Duration
}

func (c *stepClock) now() time.Time {
	return time.Unix(1700000000, c.ns.Add(int64(c.step)))
}

func panicClock() time.Time { panic("clock read on an untraced path") }

// clockedRun is what one engine made of the verdict stream.
type clockedRun struct {
	alerts  []detector.Alert
	records []obs.AlertRecord
	metrics map[string]obs.MetricSnapshot
	stats   detector.Stats
}

// runEngine streams txs one at a time through a two-shard engine with a
// journal, traced and metered on one registry or neither. Process is
// called from this goroutine only.
func runEngine(t *testing.T, model detector.Scorer, txs []httpstream.Transaction, traced bool) clockedRun {
	t.Helper()
	var journal bytes.Buffer
	cfg := detector.Config{Shards: 2, RedirectThreshold: 1, Journal: obs.NewJournalWriter(&journal)}
	if traced {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer(cfg.Metrics, 2)
	}
	e := detector.New(cfg, model)
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
	for _, ms := range e.Registry().Snapshot() {
		run.metrics[ms.Name] = ms
	}
	run.stats = e.Stats()
	return run
}

// clockCorpus is a seeded corpus with one client per episode, the stream
// of its transactions in request-time order, and a model trained on it.
func clockCorpus(t *testing.T) ([]dynaminer.Episode, []httpstream.Transaction, *dynaminer.Classifier) {
	t.Helper()
	eps := dynaminer.Corpus(dynaminer.CorpusConfig{Seed: 7, Infections: 8, Benign: 8})
	clf, err := dynaminer.TrainForMonitoring(eps, dynaminer.TrainConfig{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var txs []httpstream.Transaction
	for i := range eps {
		ep := &eps[i]
		addr := netip.AddrFrom4([4]byte{10, 7, byte(i >> 8), byte(i)})
		for j := range ep.Txs {
			ep.Txs[j].ClientIP = addr
		}
		txs = append(txs, ep.Txs...)
	}
	sort.SliceStable(txs, func(i, j int) bool { return txs[i].ReqTime.Before(txs[j].ReqTime) })
	return eps, txs, clf
}

// TestVerdictsIndependentOfClock pins that the engine's output is a
// function of its input alone and that the tracer's clock is the only one
// it reads. The same interleaved infection and benign stream goes through
// an untraced, unmetered engine while the clock panics on any read, and
// through traced engines whose clock reads 1 ns and 1 s per call: all
// three give the same alerts, journal records (trace ids aside) and
// counter and gauge values. Under the 1 s clock every ml.score
// observation is one whole step. An untraced Monitor replays the same
// episodes as a capture through ProcessPCAP, capture layers included,
// under the panicking clock.
func TestVerdictsIndependentOfClock(t *testing.T) {
	eps, txs, clf := clockCorpus(t)
	model := clf.FlatForest()

	t.Cleanup(obs.SetClock(panicClock))
	bare := runEngine(t, model, txs, false)
	if bare.stats.Panics != 0 {
		t.Fatalf("untraced engine faulted %d times: it read the clock", bare.stats.Panics)
	}
	fastClock := &stepClock{step: time.Nanosecond}
	t.Cleanup(obs.SetClock(fastClock.now))
	fast := runEngine(t, model, txs, true)
	slowClock := &stepClock{step: time.Second}
	t.Cleanup(obs.SetClock(slowClock.now))
	slow := runEngine(t, model, txs, true)

	if len(bare.alerts) == 0 || len(bare.records) != len(bare.alerts) {
		t.Fatalf("%d alerts, %d journal records: the comparison is vacuous", len(bare.alerts), len(bare.records))
	}
	for _, run := range []struct {
		name string
		clockedRun
	}{{"1 ns clock", fast}, {"1 s clock", slow}} {
		if !reflect.DeepEqual(run.alerts, bare.alerts) {
			t.Fatalf("%s: alerts differ from the untraced engine's", run.name)
		}
		if !reflect.DeepEqual(run.records, bare.records) {
			t.Fatalf("%s: journal records differ from the untraced engine's:\n%+v\n%+v", run.name, run.records, bare.records)
		}
		for name, b := range bare.metrics {
			if b.Type != "counter" && b.Type != "gauge" {
				t.Fatalf("untraced, unmetered engine registered %s %s", b.Type, name)
			}
			if name == "dynaminer_journal_size_bytes" {
				continue // a traced engine's records carry their trace_id
			}
			if r := run.metrics[name]; r.Value != b.Value {
				t.Errorf("%s: %s = %d, untraced %d", run.name, name, r.Value, b.Value)
			}
		}
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
	score := slow.metrics["dynaminer_stage_ml_score_seconds"]
	if classifications == 0 || score.Count != classifications || score.Sum != float64(classifications) {
		t.Fatalf("ml.score histogram %d observations summing to %v s, want one 1 s step for each of %d classifications",
			score.Count, score.Sum, classifications)
	}

	var capture bytes.Buffer
	var convs []pcap.Conversation
	for i := range eps {
		convs = append(convs, eps[i].Conversations()...)
	}
	if err := pcap.WriteConversations(&capture, convs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(obs.SetClock(panicClock))
	m := dynaminer.NewMonitor(dynaminer.MonitorConfig{RedirectThreshold: 1, Shards: 2}, clf)
	alerts, err := m.ProcessPCAP(&capture)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Panics != 0 || st.Transactions != len(txs) || len(alerts) == 0 {
		t.Fatalf("untraced ProcessPCAP under a panicking clock: %d alerts, stats %+v, want %d transactions and no fault",
			len(alerts), st, len(txs))
	}
	t.Logf("%d transactions: %d alerts, %d classifications, %d counters and gauges equal",
		len(txs), len(bare.alerts), classifications, compared)
}
