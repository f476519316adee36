package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"dynaminer"
	"dynaminer/internal/obs"
)

// The engine configuration every workload runs under. RedirectThreshold 1
// is the threshold TrainForMonitoring extracts its training subsets with;
// at the CLI default of 3 only about a fifth of synthetic infections ever
// fire a clue, so the classify path would barely run.
const (
	redirectThreshold = 1
	engineShards      = 2
)

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// minPasses is the least number of untraced passes a run measures,
// however short its duration.
const minPasses = 5

// env is everything a run prepares before its first pass.
type env struct {
	corpus   *corpus
	model    *dynaminer.Classifier
	loadBlob time.Duration
}

// trainModel trains on the repo's synthetic ground truth and round-trips
// the model through the binary blob, the artifact a deployment loads.
func trainModel(seed int64) (model *dynaminer.Classifier, loadBlob time.Duration, err error) {
	ground := dynaminer.Corpus(dynaminer.CorpusConfig{Seed: seed})
	trained, err := dynaminer.TrainForMonitoring(ground, dynaminer.TrainConfig{Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	var blob bytes.Buffer
	if err := trained.SaveBlob(&blob); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	model, err = dynaminer.Load(bytes.NewReader(blob.Bytes()))
	return model, time.Since(t0), err
}

// setUp trains the model, generates the workload's corpus and computes the
// oracle verdicts.
func setUp(s spec, seed int64, scale int) (*env, error) {
	model, loadBlob, err := trainModel(seed)
	if err != nil {
		return nil, err
	}
	// The workload's episodes come from another seed than the model's
	// training set, so the engine never scores an episode it trained on.
	c, err := newCorpus(s, seed+1_000_003, scale)
	if err != nil {
		return nil, err
	}
	c.oracle(model)
	return &env{corpus: c, model: model, loadBlob: loadBlob}, nil
}

// sink is the journal's writer: it keeps the records in memory and stamps
// each with its arrival time, so nothing touches the disk while a pass is
// timed. The journal calls Write under its own lock.
type sink struct {
	start   time.Time
	arrived []time.Duration
	buf     []byte
}

func (s *sink) Write(p []byte) (int, error) {
	s.arrived = append(s.arrived, time.Since(s.start))
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// firstPerClient returns the arrival time of each client's first record.
// The journal writes one record per Write, so records and arrivals align.
func (s *sink) firstPerClient() []time.Duration {
	records, err := obs.ReadJournal(bytes.NewReader(s.buf))
	if err != nil || len(records) != len(s.arrived) {
		return nil
	}
	seen := make(map[string]struct{}, len(records))
	var first []time.Duration
	for i := range records {
		if _, ok := seen[records[i].Client]; !ok {
			seen[records[i].Client] = struct{}{}
			first = append(first, s.arrived[i])
		}
	}
	return first
}

func (s *sink) reset() {
	s.arrived, s.buf = s.arrived[:0], s.buf[:0]
	s.start = time.Now()
}

// pass is what one replay of the corpus through a fresh monitor measured.
type pass struct {
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	// Verdict latency within the pass: per Monitor.Process call on the
	// in-memory workloads; on the wire workloads from the ProcessPCAP call
	// to each alerted client's first journal record reaching the sink.
	p50, p95   time.Duration
	samples    int
	firstAlert time.Duration // zero when the pass raised no alert
	records    int
	journalKB  float64
	stats      dynaminer.MonitorStats
	alerted    [2]int // clients alerted: [benign, infected]
	digest     uint64
	failed     int
}

// runner replays one corpus; its buffers are reused by every pass.
type runner struct {
	env  *env
	sink sink
	lat  []time.Duration
}

func newRunner(e *env) *runner {
	return &runner{env: e, lat: make([]time.Duration, len(e.corpus.stream))}
}

func (r *runner) monitor(metrics bool) *dynaminer.Monitor {
	cfg := dynaminer.MonitorConfig{
		RedirectThreshold: redirectThreshold,
		Shards:            engineShards,
		Journal:           obs.NewJournalWriter(&r.sink),
	}
	if metrics {
		cfg.Metrics = obs.NewRegistry()
	}
	return dynaminer.NewMonitor(cfg, r.env.model)
}

// measured wraps one timed replay: it settles the heap, resets the sink,
// runs feed, and turns what came back into a pass.
func (r *runner) measured(mon *dynaminer.Monitor, feed func() ([]dynaminer.Alert, error)) pass {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.sink.reset()
	alerts, err := feed()
	wall := time.Since(r.sink.start)
	runtime.ReadMemStats(&m1)

	c := r.env.corpus
	p := pass{
		wall:       wall,
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		records:    len(r.sink.arrived),
		journalKB:  float64(len(r.sink.buf)) / 1e3,
		stats:      mon.Stats(),
	}
	samples := r.lat
	if c.spec.wire {
		samples = r.sink.firstPerClient()
	}
	p.p50, p.p95 = percentiles(samples, wall)
	p.samples = len(samples)
	if len(r.sink.arrived) > 0 {
		p.firstAlert = r.sink.arrived[0]
	}

	got := make([]verdict, len(c.clients))
	h := fnv.New64a()
	for i := range alerts {
		a := &alerts[i]
		fmt.Fprintf(h, "%s|%s|%s|%x|%d\n", a.Client, a.TriggerHost, a.TriggerPayload, math.Float64bits(a.Score), a.Time.UnixNano())
		if k, ok := c.byIP[a.Client]; ok && !got[k].alerted {
			got[k] = verdict{alerted: true, host: a.TriggerHost}
		}
	}
	p.digest = h.Sum64()
	for k := range c.clients {
		if got[k].alerted {
			if c.clients[k].infected {
				p.alerted[1]++
			} else {
				p.alerted[0]++
			}
		}
		if got[k] != c.clients[k].want {
			p.failed++
		}
	}
	if err != nil || p.stats.Transactions != c.numTxs {
		// The pass broke, or the capture did not round-trip into the
		// transactions it was rendered from: no verdict can be trusted.
		p.failed = len(c.clients)
	}
	return p
}

// pass replays the corpus once, untraced, through a fresh monitor: the
// capture through ProcessPCAP, or the merged stream one Process call at a
// time with one clock read per call.
func (r *runner) pass(metrics bool) pass {
	mon := r.monitor(metrics)
	c := r.env.corpus
	if c.spec.wire {
		return r.measured(mon, func() ([]dynaminer.Alert, error) {
			return mon.ProcessPCAP(bytes.NewReader(c.capture))
		})
	}
	return r.measured(mon, func() ([]dynaminer.Alert, error) {
		var alerts []dynaminer.Alert
		var prev time.Duration
		for i := range c.stream {
			if a := mon.Process(c.stream[i]); a != nil {
				alerts = append(alerts, a...)
			}
			now := time.Since(r.sink.start)
			r.lat[i] = now - prev
			prev = now
		}
		return alerts, nil
	})
}

// percentiles returns the median and 95th percentile of samples (nearest
// rank), or fallback for both when there are none.
func percentiles(samples []time.Duration, fallback time.Duration) (p50, p95 time.Duration) {
	if len(samples) == 0 {
		return fallback, fallback
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2], s[len(s)*95/100]
}

// quartiles mirrors Python's statistics.quantiles(values, n=4): the
// acceptance check of the benchmark is stated in its terms.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

func collect[T any](ps []T, f func(T) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics turns the untraced passes into the end-to-end metrics.
func endToEndMetrics(c *corpus, setups []float64, passes []pass) map[string]float64 {
	txs := float64(c.numTxs)
	return map[string]float64{
		"setup_s":                median(setups),
		"tx_per_s":               median(collect(passes, func(p pass) float64 { return txs / p.wall.Seconds() })),
		"verdict_latency_p50_us": median(collect(passes, func(p pass) float64 { return us(p.p50) })),
		"verdict_latency_p95_us": median(collect(passes, func(p pass) float64 { return us(p.p95) })),
		"allocs_per_tx":          median(collect(passes, func(p pass) float64 { return float64(p.mallocs) / txs })),
		"alloc_kb_per_tx":        median(collect(passes, func(p pass) float64 { return float64(p.allocBytes) / 1e3 / txs })),
	}
}
