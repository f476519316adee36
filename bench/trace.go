package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"dynaminer"
	"dynaminer/internal/features"
	"dynaminer/internal/graph"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
	"dynaminer/internal/pcap"
	"dynaminer/internal/wcg"
)

// tracedPasses is how many passes the traced run makes.
const tracedPasses = 3

// replayTxs bounds how many transactions (whole clients) the replay spans
// walk, so per-unit layer costs rest on thousands of samples without the
// largest corpus adding seconds to a run.
const replayTxs = 20000

// maxCallSpans bounds how many per-call spans the trace file holds; every
// stage and replay span is always written.
const maxCallSpans = 50000

const callSpan = "detector.process_call"

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its own call into the layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32         // index of the span that caused it; -1 for a root
	pass       int32
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int32, pass int) int32 {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, pass: int32(pass)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) time.Duration {
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	return s.end - s.start
}

// write emits the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span, one
// track per pass, the causing span's index under args.parent.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	calls, written := 0, 0
	for i, s := range t.spans {
		if s.name == callSpan {
			if calls++; calls > maxCallSpans {
				continue
			}
		}
		if written++; written > 1 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			s.name, s.pass, us(s.start), us(s.end-s.start), i, s.parent)
	}
	fmt.Fprintf(w, "\n"+`],"otherData":{"spans_recorded":%d,"spans_written":%d}}`+"\n", len(t.spans), written)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is what one traced pass measured at the layer boundaries.
type layers struct {
	pass
	root, read, reassemble, extract, process time.Duration

	// Wire workloads only: what the capture layers did.
	packets, streams, conversations int
	reassembleMallocs, extractBytes uint64
	bodyBytes                       int
	txs                             []dynaminer.Transaction // what they handed the detector
}

func (l *layers) sum() time.Duration { return l.read + l.reassemble + l.extract + l.process }

// tracedPass replays the corpus with a span around every call into a
// layer. On a wire workload it runs the composition ProcessPCAP is built
// from, so the four stages can be timed from outside; on an in-memory
// workload every Monitor.Process call is a span.
func (r *runner) tracedPass(t *tracer, n int) layers {
	mon := r.monitor(true)
	c := r.env.corpus
	var l layers
	if !c.spec.wire {
		l.pass = r.measured(mon, func() ([]dynaminer.Alert, error) {
			var alerts []dynaminer.Alert
			root := t.begin("dynaminer.process_stream", -1, n)
			for i := range c.stream {
				start := time.Since(t.epoch)
				a := mon.Process(c.stream[i])
				end := time.Since(t.epoch)
				t.spans = append(t.spans, span{name: callSpan, start: start, end: end, parent: root, pass: int32(n)})
				l.process += end - start
				r.lat[i] = end - start
				alerts = append(alerts, a...)
			}
			l.root = t.end(root)
			return alerts, nil
		})
		return l
	}
	l.pass = r.measured(mon, func() ([]dynaminer.Alert, error) {
		root := t.begin("dynaminer.process_pcap", -1, n)
		s := t.begin("pcap.read", root, n)
		pkts, err := pcap.ReadAllAuto(bytes.NewReader(c.capture))
		l.read = t.end(s)
		if err != nil {
			return nil, err
		}
		l.packets = len(pkts) // last use: as in ProcessPCAP, the packets die with reassembly
		mallocs0, _ := heapCounters()
		s = t.begin("pcap.reassemble", root, n)
		streams, asm := pcap.AssembleStreamsInto(nil, pkts)
		l.reassemble = t.end(s)
		mallocs1, bytes1 := heapCounters()
		s = t.begin("httpstream.extract", root, n)
		l.txs = httpstream.ExtractAll(streams)
		l.extract = t.end(s)
		_, bytes2 := heapCounters()
		l.streams, l.conversations = len(streams), conversations(streams)
		asm.Release()
		l.reassembleMallocs, l.extractBytes = mallocs1-mallocs0, bytes2-bytes1
		for i := range l.txs {
			l.bodyBytes += len(l.txs[i].Body)
		}
		s = t.begin("detector.process", root, n)
		alerts := mon.ProcessAll(l.txs)
		l.process = t.end(s)
		l.root = t.end(root)
		return alerts, nil
	})
	return l
}

// heapCounters reads the cumulative allocation counters without stopping
// the world, so it can sit between two stage spans.
func heapCounters() (mallocs, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// conversations counts TCP conversations among reassembled directions.
func conversations(streams []*pcap.Stream) int {
	seen := make(map[pcap.FlowKey]struct{}, len(streams))
	for _, s := range streams {
		if _, ok := seen[s.Key.Reverse()]; !ok {
			seen[s.Key] = struct{}{}
		}
	}
	return len(seen)
}

// heapPeak samples live heap bytes every 50 ms until stop is called and
// returns the largest reading.
func heapPeak() (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak) / 1e6
	}
}

// replay holds the cost of the layers the engine calls internally. They
// cannot be split from outside, so each is re-run on the traced pass's
// own data inside one span and reported per unit, never added to the
// layer sum.
type replay struct {
	clients, txs int

	sniff      time.Duration
	sniffBytes int

	build        time.Duration
	nodes, edges int
	extract      time.Duration
	appendWalk   time.Duration

	incremental, topology   time.Duration
	incrementalN, topologyN int

	score   time.Duration
	vectors int

	journal time.Duration
	records int
}

// kept receives a value from every replayed call whose result is otherwise
// unused, so the compiler cannot drop the call.
var kept float64

func (r *runner) replay(t *tracer, txs []dynaminer.Transaction) (replay, error) {
	var rp replay
	root := t.begin("dynaminer.replay", -1, tracedPasses)

	// detector.sniff: the body scan the detector runs on every HTML or
	// JavaScript response before it looks at anything else.
	var bodies [][]byte
	for i := range txs {
		if p := wcg.ClassifyPayload(txs[i].URI, txs[i].ContentType); (p == wcg.PayloadHTML || p == wcg.PayloadJS) && len(txs[i].Body) > 0 {
			bodies = append(bodies, txs[i].Body)
			rp.sniffBytes += len(txs[i].Body)
		}
	}
	s := t.begin("detector.sniff", root, tracedPasses)
	for _, b := range bodies {
		kept += float64(len(wcg.SniffBodyRedirects(b)))
	}
	rp.sniff = t.end(s)

	// Whole clients, in order of first appearance, up to the budget.
	var groups [][]dynaminer.Transaction
	index := make(map[netip.Addr]int)
	for i := range txs {
		k, ok := index[txs[i].ClientIP]
		if !ok {
			if rp.txs >= replayTxs {
				continue
			}
			k = len(groups)
			index[txs[i].ClientIP] = k
			groups = append(groups, nil)
		}
		groups[k] = append(groups[k], txs[i])
		rp.txs++
	}
	rp.clients = len(groups)

	graphs := make([]*wcg.WCG, len(groups))
	s = t.begin("wcg.build", root, tracedPasses)
	for k, g := range groups {
		graphs[k] = wcg.FromTransactions(g)
	}
	rp.build = t.end(s)
	for _, g := range graphs {
		rp.nodes += g.Order()
		rp.edges += g.Size()
	}
	s = t.begin("features.extract", root, tracedPasses)
	for _, g := range graphs {
		kept += features.Extract(g)[0]
	}
	rp.extract = t.end(s)

	s = t.begin("wcg.append", root, tracedPasses)
	for _, g := range groups {
		ib := wcg.NewIncrementalBuilder()
		for i := range g {
			ib.Append(g[i])
		}
	}
	rp.appendWalk = t.end(s)

	// features.incremental: the watched-graph loop of the detector, one
	// FeaturesInto per appended transaction, split by whether the append
	// moved the graph's topology (a new host or a first edge between two).
	scratch := graph.NewScratch()
	vectors := make([]float64, 0, rp.txs*features.NumFeatures)
	vec := make([]float64, features.NumFeatures)
	s = t.begin("features.incremental", root, tracedPasses)
	for _, g := range groups {
		ib := wcg.NewIncrementalBuilder()
		cache := features.NewCache(ib.Live(), scratch)
		for i := range g {
			before := ib.Live().StructVersion()
			ib.Append(g[i])
			moved := ib.Live().StructVersion() != before
			t0 := time.Since(t.epoch)
			vec = cache.FeaturesInto(vec)
			d := time.Since(t.epoch) - t0
			if moved {
				rp.topology += d
				rp.topologyN++
			} else {
				rp.incremental += d
				rp.incrementalN++
			}
			vectors = append(vectors, vec...)
		}
	}
	t.end(s)

	forest := r.env.model.FlatForest()
	rp.vectors = len(vectors) / features.NumFeatures
	s = t.begin("ml.score", root, tracedPasses)
	for i := 0; i < rp.vectors; i++ {
		kept += forest.Score(vectors[i*features.NumFeatures : (i+1)*features.NumFeatures])
	}
	rp.score = t.end(s)

	// obs.journal: the records the traced pass wrote, appended again.
	records, err := obs.ReadJournal(bytes.NewReader(r.sink.buf))
	if err != nil {
		return rp, fmt.Errorf("journal of the traced pass does not read back: %w", err)
	}
	rp.records = len(records)
	j := obs.NewJournalWriter(io.Discard)
	s = t.begin("obs.journal", root, tracedPasses)
	for i := range records {
		if err := j.Append(records[i]); err != nil {
			return rp, err
		}
	}
	rp.journal = t.end(s)
	t.end(root)
	return rp, nil
}

// perLayerMetrics turns the traced passes, the replay and the untraced
// passes they are compared with into the per-layer metrics.
func perLayerMetrics(e *env, passes []pass, traced []layers, rp replay, metered, bare []pass, loadBlobs []float64, heapMB float64) map[string]float64 {
	c := e.corpus
	last := traced[len(traced)-1]
	st := last.stats
	txs := float64(c.numTxs)
	med := func(f func(layers) time.Duration) float64 {
		return median(collect(traced, func(l layers) float64 { return ms(f(l)) }))
	}
	read := med(func(l layers) time.Duration { return l.read })
	reassemble := med(func(l layers) time.Duration { return l.reassemble })
	extract := med(func(l layers) time.Duration { return l.extract })
	process := med(func(l layers) time.Duration { return l.process })
	layerSum := med(func(l layers) time.Duration { return l.sum() })
	tracedRoot := med(func(l layers) time.Duration { return l.root })

	wallMS := func(p pass) float64 { return ms(p.wall) }
	q1, passMS, q3 := quartiles(collect(passes, wallMS))
	firstAlert := median(collect(passes, func(p pass) float64 { return ms(p.firstAlert) }))
	captureMB := float64(len(c.capture)) / 1e6
	info := e.model.Info()

	return map[string]float64{
		"pcap.read_ms":                  read,
		"pcap.reassemble_ms":            reassemble,
		"pcap.packets":                  float64(last.packets),
		"pcap.streams":                  float64(last.streams),
		"pcap.capture_mb":               captureMB,
		"pcap.reassemble_ns_per_packet": ratio(reassemble*1e6, float64(last.packets)),
		"pcap.allocs_per_packet":        ratio(float64(last.reassembleMallocs), float64(last.packets)),

		"httpstream.extract_ms":        extract,
		"httpstream.txs":               float64(len(last.txs)),
		"httpstream.conversations":     float64(last.conversations),
		"httpstream.extract_us_per_tx": ratio(extract*1e3, float64(len(last.txs))),
		"httpstream.alloc_kb_per_tx":   ratio(float64(last.extractBytes)/1e3, float64(len(last.txs))),
		"httpstream.body_mb":           float64(last.bodyBytes) / 1e6,

		"detector.process_ms":        process,
		"detector.process_us_per_tx": process * 1e3 / txs,
		"detector.transactions":      float64(st.Transactions),
		"detector.weeded":            float64(st.Weeded),
		"detector.clusters":          float64(st.Clusters),
		"detector.evicted":           float64(st.Evicted),
		"detector.clues":             float64(st.CluesFired),
		"detector.classifications":   float64(st.Classifications),
		"detector.rebuilds":          float64(st.Rebuilds),
		"detector.alerts":            float64(st.Alerts),
		"detector.dropped":           float64(st.Dropped),
		"detector.degraded":          float64(st.Degraded),
		"detector.shed":              float64(st.Shed),
		"detector.panics":            float64(st.Panics),
		"detector.quarantined":       float64(st.Quarantined),
		"detector.classify_share":    ratio(float64(st.Classifications), float64(st.Transactions)),
		"detector.sniff_ms":          ms(rp.sniff),
		"detector.sniff_mb":          float64(rp.sniffBytes) / 1e6,

		"wcg.build_us_per_client": ratio(us(rp.build), float64(rp.clients)),
		"wcg.append_ns_per_tx":    ratio(float64(rp.appendWalk), float64(rp.txs)),
		"wcg.nodes_mean":          ratio(float64(rp.nodes), float64(rp.clients)),
		"wcg.edges_mean":          ratio(float64(rp.edges), float64(rp.clients)),

		"features.extract_us_per_wcg":     ratio(us(rp.extract), float64(rp.clients)),
		"features.incremental_ns_per_tx":  ratio(float64(rp.incremental), float64(rp.incrementalN)),
		"features.topology_us_per_change": ratio(us(rp.topology), float64(rp.topologyN)),
		"features.topology_change_share":  ratio(float64(rp.topologyN), float64(rp.txs)),

		"ml.score_ns_per_vector": ratio(float64(rp.score), float64(rp.vectors)),
		"ml.load_blob_ms":        median(loadBlobs),
		"ml.trees":               float64(info.Trees),
		"ml.nodes":               float64(info.Nodes),

		"obs.journal_append_us":      ratio(us(rp.journal), float64(rp.records)),
		"obs.journal_records":        float64(last.records),
		"obs.journal_kb":             last.journalKB,
		"obs.metrics_overhead_ratio": median(collect(metered, wallMS)) / median(collect(bare, wallMS)),

		"dynaminer.passes":               float64(len(passes)),
		"dynaminer.pass_ms_median":       passMS,
		"dynaminer.pass_ms_iqr":          q3 - q1,
		"dynaminer.layer_sum_ms":         layerSum,
		"dynaminer.layer_sum_ratio":      layerSum / passMS,
		"dynaminer.trace_overhead_ratio": tracedRoot / passMS,
		"dynaminer.wire_mb_per_s":        captureMB / (passMS / 1e3),
		"dynaminer.first_alert_ms":       firstAlert,
		"dynaminer.first_alert_share":    firstAlert / passMS,
		"dynaminer.detection_recall":     ratio(float64(last.alerted[1]), float64(c.infected)),
		"dynaminer.false_alert_rate":     ratio(float64(last.alerted[0]), float64(len(c.clients)-c.infected)),
		"dynaminer.heap_peak_mb":         heapMB,
		"dynaminer.gc_cycles_per_pass":   median(collect(passes, func(p pass) float64 { return float64(p.gcCycles) })),
		"dynaminer.gc_pause_ms_per_pass": median(collect(passes, func(p pass) float64 { return ms(p.gcPause) })),
	}
}
