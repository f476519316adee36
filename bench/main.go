// Command bench is the repository's wire-to-verdict benchmark: four
// workloads generated from a seed, end-to-end metrics from untraced passes
// and per-layer metrics from a separate traced run. README.md in this
// directory is the glossary; BENCHMARK.json at the repository root is the
// contract.
//
//	bash bench/run.sh [--workload all] [--seed 1] [--seconds 10] [--trace 1] [--repeat 1]
//
// For each workload it prints every metric by name with its unit, then one
// JSON line {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// result is one run of one workload.
type result struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	correct   bool
	passes    int
	samples   int // verdict-latency samples per pass
	endToEnd  map[string]float64
	perLayer  map[string]float64 // nil unless the run was traced
}

// runWorkload sets up, warms up, measures untraced passes for at least
// duration and, when traced, makes the traced run after them. scale
// divides the workload's size (1 outside the tests); traceDir receives
// trace-<workload>.json.
func runWorkload(s spec, seed int64, scale int, duration time.Duration, traced bool, traceDir string) (*result, error) {
	var e *env
	var setups, loadBlobs []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if e, err = setUp(s, seed, scale); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		loadBlobs = append(loadBlobs, ms(e.loadBlob))
	}
	r := newRunner(e)
	res := &result{workload: s.name, seed: seed, correct: true}
	digest := r.pass(true).digest // warm-up, discarded but for its digest
	count := func(p pass) {
		res.attempted += len(e.corpus.clients)
		res.failed += p.failed
		if p.failed > 0 || p.digest != digest {
			res.correct = false
		}
	}

	var passes []pass
	for start := time.Now(); len(passes) < minPasses || time.Since(start) < duration; {
		p := r.pass(true)
		count(p)
		passes = append(passes, p)
	}
	res.passes = len(passes)
	res.samples = passes[0].samples
	res.endToEnd = endToEndMetrics(e.corpus, setups, passes)
	if !traced {
		return res, nil
	}

	t := &tracer{epoch: time.Now()}
	if !s.wire {
		t.spans = make([]span, 0, tracedPasses*(len(e.corpus.stream)+1)+16)
	}
	stopPeak := heapPeak()
	var tracedRuns []layers
	for n := 0; n < tracedPasses; n++ {
		l := r.tracedPass(t, n)
		count(l.pass)
		tracedRuns = append(tracedRuns, l)
	}
	heapMB := stopPeak()
	txs := tracedRuns[tracedPasses-1].txs
	if !s.wire {
		txs = e.corpus.stream
	}
	rp, err := r.replay(t, txs)
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", s.name, err)
	}
	// What the engine's own metrics cost: untraced passes without a
	// registry, alternated with passes that have one so that both sides see
	// the same heap and the same minute of the machine.
	var bare, metered []pass
	for n := 0; n < 2; n++ {
		bare = append(bare, r.pass(false))
		metered = append(metered, r.pass(true))
		count(bare[n])
		count(metered[n])
	}
	res.perLayer = perLayerMetrics(e, passes, tracedRuns, rp, metered, bare, loadBlobs, heapMB)
	if err := t.write(filepath.Join(traceDir, "trace-"+s.name+".json")); err != nil {
		return nil, fmt.Errorf("%s: write trace: %w", s.name, err)
	}
	return res, nil
}

// print writes the human-readable table and then the JSON line: the
// per-layer metrics of a traced run, the end-to-end metrics otherwise.
func (res *result) print() error {
	fmt.Printf("\n== %s  seed=%d  passes=%d  latency-samples/pass=%d  attempted=%d  failed=%d  correct=%v\n",
		res.workload, res.seed, res.passes, res.samples, res.attempted, res.failed, res.correct)
	table := func(defs []metricDef, values map[string]float64) {
		for _, d := range defs {
			fmt.Printf("  %-34s %16.4f %s\n", d.Name, values[d.Name], d.Unit)
		}
	}
	table(endToEnd, res.endToEnd)
	defs, values := endToEnd, res.endToEnd
	if res.perLayer != nil {
		table(perLayer, res.perLayer)
		defs, values = perLayer, res.perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]metric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = metric{values[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("%s: a metric is not a number: %w", res.workload, err)
	}
	fmt.Printf("%s\n", line)
	return nil
}

// printSpread reports, for every end-to-end metric of one workload over
// the repeated runs, the values, their median, the distance between the
// first and third quartile as a share of the median, and whether that
// stays within the metric's bound.
func printSpread(workload string, runs []*result) bool {
	ok := true
	fmt.Printf("\n== %s  spread over %d runs (seeds %d..%d)\n", workload, len(runs), runs[0].seed, runs[len(runs)-1].seed)
	for _, d := range endToEnd {
		values := collect(runs, func(r *result) float64 { return r.endToEnd[d.Name] })
		q1, q2, q3 := quartiles(values)
		spread := (q3 - q1) / q2
		verdict := "PASS"
		if d.Name != "setup_s" && spread > d.Bound {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("  %-24s median %14.4f %-5s spread %6.2f%%  bound %5.1f%%  %s  %.4g\n",
			d.Name, q2, d.Unit, 100*spread, 100*d.Bound, verdict, values)
	}
	for _, r := range runs {
		if !r.correct {
			fmt.Printf("  seed %d: %d of %d operations failed\n", r.seed, r.failed, r.attempted)
			ok = false
		}
	}
	return ok
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "how long the untraced passes of one workload measure")
	trace := flag.Int("trace", 1, "1: also make the traced run and report the per-layer metrics; 0: end-to-end metrics only")
	repeat := flag.Int("repeat", 1, "run the selected workloads this many times on consecutive seeds and report each end-to-end metric's spread against its bound")
	flag.Parse()

	// Two cores at most: the caller's goroutine plus the engine's two
	// shards are the only workers, and every machine that runs the
	// benchmark can offer as much.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	selected := specs
	if *workload != "all" {
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		selected = []spec{s}
	}
	runs := make(map[string][]*result)
	for i := 0; i < *repeat; i++ {
		for _, s := range selected {
			res, err := runWorkload(s, *seed+int64(i), 1, time.Duration(*seconds)*time.Second, *trace == 1, filepath.Join("bench", "out"))
			if err == nil {
				err = res.print()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			runs[s.name] = append(runs[s.name], res)
		}
	}
	if *repeat > 1 {
		ok := true
		for _, s := range selected {
			ok = printSpread(s.name, runs[s.name]) && ok
		}
		if !ok {
			os.Exit(1)
		}
	}
}
