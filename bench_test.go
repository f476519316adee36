package dynaminer

// The bench suite regenerates every table and figure of the paper at full
// paper scale (770/980 training episodes, 7489/1500 validation episodes),
// one benchmark per artifact, and reports the headline numbers as custom
// metrics so `go test -bench=.` output doubles as the experiment record.
// DESIGN.md §4 maps each benchmark to the paper artifact it regenerates.

import (
	"bytes"
	"net/http"
	"net/netip"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"dynaminer/internal/detector"
	"dynaminer/internal/experiments"
	"dynaminer/internal/features"
	"dynaminer/internal/ml"
	"dynaminer/internal/obs"
	"dynaminer/internal/synth"
)

var benchOpts = experiments.Options{Seed: 1}

// benchCorpus caches the ground-truth corpus across benchmarks.
var benchCorpus []synth.Episode

func corpusForBench(b *testing.B) []synth.Episode {
	b.Helper()
	if benchCorpus == nil {
		benchCorpus = experiments.GroundTruth(benchOpts)
	}
	return benchCorpus
}

// benchDataset caches the extracted design matrix: five benchmarks need
// it, and re-deriving 37 features per episode per benchmark dominated
// their setup time.
var benchDataset *ml.Dataset

func datasetForBench(b *testing.B) *ml.Dataset {
	b.Helper()
	if benchDataset == nil {
		benchDataset = experiments.BuildDataset(corpusForBench(b))
	}
	return benchDataset
}

func BenchmarkTableI(b *testing.B) {
	eps := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.TableI(eps)
		if len(res.Rows) != 11 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	eps := corpusForBench(b)
	b.ResetTimer()
	var google float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure1(eps)
		google = res.Rows[0].Pct
	}
	b.ReportMetric(google, "google-pct")
}

func BenchmarkFigure2(b *testing.B) {
	eps := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := experiments.Figure2(eps); len(res.Families) != 10 {
			b.Fatal("wrong family count")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	eps := corpusForBench(b)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure3(eps)
		ratio = res.Rows[0].Infection / res.Rows[0].Benign // node-count ratio
	}
	b.ReportMetric(ratio, "node-ratio")
}

func BenchmarkFigure4(b *testing.B) {
	eps := corpusForBench(b)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure4(eps)
		ratio = res.Rows[0].Infection / res.Rows[0].Benign // GET-count ratio
	}
	b.ReportMetric(ratio, "GET-ratio")
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiments.Figure6(benchOpts); res.Order < 3 {
			b.Fatal("example WCG too small")
		}
	}
}

func BenchmarkFigures7to9(b *testing.B) {
	eps := corpusForBench(b)
	b.ResetTimer()
	var betweenGap float64
	for i := 0; i < b.N; i++ {
		series := experiments.Figures7to9(eps)
		betweenGap = series[1].BenMean - series[1].InfMean
	}
	b.ReportMetric(betweenGap, "betweenness-gap")
}

func BenchmarkTableIII(b *testing.B) {
	ds := datasetForBench(b)
	b.ResetTimer()
	var tpr, fpr float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIII(ds, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		tpr, fpr = res.Rows[0].TPR, res.Rows[0].FPR
	}
	b.ReportMetric(tpr, "all-TPR")
	b.ReportMetric(fpr, "all-FPR")
}

func BenchmarkTableIV(b *testing.B) {
	ds := datasetForBench(b)
	b.ResetTimer()
	var graphCount int
	for i := 0; i < b.N; i++ {
		res := experiments.TableIV(ds, benchOpts)
		graphCount = res.GraphFeatureCount()
	}
	b.ReportMetric(float64(graphCount), "GFs-in-top20")
}

func BenchmarkFigure10(b *testing.B) {
	ds := datasetForBench(b)
	b.ResetTimer()
	var auc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10(ds, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		auc = res.AUC
	}
	b.ReportMetric(auc, "AUC")
}

func BenchmarkTableV(b *testing.B) {
	var dmInf, vtInf float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableV(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		dmInf = res.Rows[0].InfectionAccuracy()
		vtInf = res.Rows[1].InfectionAccuracy()
	}
	b.ReportMetric(dmInf, "dynaminer-recall")
	b.ReportMetric(vtInf, "av-recall")
}

func BenchmarkCaseStudy1(b *testing.B) {
	var alerts, lag float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseStudy1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		alerts = float64(res.Alerts)
		lag = float64(res.FreshPayloadLagDays)
	}
	b.ReportMetric(alerts, "alerts")
	b.ReportMetric(lag, "av-lag-days")
}

func BenchmarkTableVI(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableVI(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, row := range res.Rows {
			total += float64(row.Alerts)
		}
	}
	b.ReportMetric(total, "alerts")
}

func BenchmarkAblationClueThreshold(b *testing.B) {
	var det3 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationClueThreshold(benchOpts, 100)
		if err != nil {
			b.Fatal(err)
		}
		det3 = res.Rows[2].DetectionRate
	}
	b.ReportMetric(det3, "detection-at-L3")
}

func BenchmarkAblationTrees(b *testing.B) {
	ds := datasetForBench(b)
	b.ResetTimer()
	var auc20 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationTrees(ds, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		auc20 = res.Rows[3].ROCArea
	}
	b.ReportMetric(auc20, "AUC-at-20-trees")
}

func BenchmarkAblationVoting(b *testing.B) {
	ds := datasetForBench(b)
	b.ResetTimer()
	var avgAUC, voteAUC float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationVoting(ds, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		avgAUC, voteAUC = res.Rows[0].ROCArea, res.Rows[1].ROCArea
	}
	b.ReportMetric(avgAUC, "averaging-AUC")
	b.ReportMetric(voteAUC, "voting-AUC")
}

func BenchmarkEvasion(b *testing.B) {
	var filelessOffline float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Evasion(benchOpts, 100)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Mode == "fileless" {
				filelessOffline = row.OfflineTPR
			}
		}
	}
	b.ReportMetric(filelessOffline, "fileless-offline-TPR")
}

func BenchmarkDetectionLatency(b *testing.B) {
	var remaining float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.DetectionLatency(benchOpts, 100)
		if err != nil {
			b.Fatal(err)
		}
		remaining = res.MedianRemaining.Seconds()
	}
	b.ReportMetric(remaining, "preempted-s")
}

// Micro-benchmarks of the pipeline stages, for performance tracking.

func BenchmarkWCGConstruction(b *testing.B) {
	eps := corpusForBench(b)
	var inf *Episode
	for i := range eps {
		if eps[i].Infection {
			inf = &eps[i]
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := BuildWCG(inf.Txs); w.Order() == 0 {
			b.Fatal("empty WCG")
		}
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	eps := corpusForBench(b)
	var w *WCG
	for i := range eps {
		if eps[i].Infection {
			w = EpisodeWCG(&eps[i])
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := ExtractFeatures(w); len(v) != NumFeatures {
			b.Fatal("bad vector")
		}
	}
}

func BenchmarkMonitorThroughput(b *testing.B) {
	eps := corpusForBench(b)
	clf, err := TrainForMonitoring(eps[:300], TrainConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var inf *Episode
	for i := range eps {
		if eps[i].Infection {
			inf = &eps[i]
			break
		}
	}
	b.ResetTimer()
	processed := 0
	for i := 0; i < b.N; i++ {
		m := NewMonitor(MonitorConfig{RedirectThreshold: 3}, clf)
		m.ProcessAll(inf.Txs)
		processed += len(inf.Txs)
	}
	b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "tx/s")
}

// Engine concurrency benchmarks: BenchmarkShardedProcess versus the
// pre-sharding baseline of one Engine behind one mutex, under the same
// multi-client parallel load.

var benchClassifier *Classifier

func classifierForBench(b *testing.B) *Classifier {
	b.Helper()
	if benchClassifier == nil {
		clf, err := TrainForMonitoring(corpusForBench(b)[:300], TrainConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchClassifier = clf
	}
	return benchClassifier
}

// benchStreams caches episode transaction streams the engine benchmarks
// replay as synthetic client sessions.
var benchStreams [][]Transaction

func streamsForBench(b *testing.B) [][]Transaction {
	b.Helper()
	if benchStreams == nil {
		for _, ep := range corpusForBench(b) {
			if len(ep.Txs) == 0 {
				continue
			}
			benchStreams = append(benchStreams, ep.Txs)
			if len(benchStreams) == 64 {
				break
			}
		}
	}
	return benchStreams
}

// runEngineBench drives process from parallel goroutines, each replaying
// episode streams as an endless sequence of distinct clients: every full
// pass through a stream switches to a fresh client IP, so clusters keep
// being created rather than saturating one client's transaction cap.
func runEngineBench(b *testing.B, process func(Transaction) []Alert) {
	streams := streamsForBench(b)
	var nextClient atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var (
			stream []Transaction
			pos    int
			ip     netip.Addr
		)
		for pb.Next() {
			if pos == len(stream) {
				id := nextClient.Add(1)
				stream = streams[id%uint64(len(streams))]
				ip = netip.AddrFrom4([4]byte{10, byte(id >> 16), byte(id >> 8), byte(id)})
				pos = 0
			}
			tx := stream[pos]
			tx.ClientIP = ip
			process(tx)
			pos++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tx/s")
}

func BenchmarkShardedProcess(b *testing.B) {
	clf := classifierForBench(b)
	eng := detector.New(detector.Config{RedirectThreshold: 3}, clf.flat)
	runEngineBench(b, eng.Process)
}

// BenchmarkSingleEngineProcess is the same engine with every client behind
// one shard lock: the contended baseline BenchmarkShardedProcess spreads.
func BenchmarkSingleEngineProcess(b *testing.B) {
	clf := classifierForBench(b)
	eng := detector.New(detector.Config{RedirectThreshold: 3, Shards: 1}, clf.flat)
	runEngineBench(b, eng.Process)
}

// Incremental-classification benchmarks: the same 200-transaction watched
// chain replayed through the incremental classify path and through the
// from-scratch fallback (DisableIncremental). The chain fires a clue after
// a 3-hop redirect chain plus an EXE download, then grows the watched WCG
// with POST call-backs cycling a small set of C&C hosts, so every
// transaction triggers a re-classification of the full conversation.

// benchChainTxs caches the 200-transaction chain.
var benchChainTxs []Transaction

func chainTxsForBench(b *testing.B) []Transaction {
	b.Helper()
	if benchChainTxs != nil {
		return benchChainTxs
	}
	base := time.Date(2016, 8, 2, 9, 0, 0, 0, time.UTC)
	client := netip.MustParseAddr("10.6.6.6")
	at := func(i int) time.Time { return base.Add(time.Duration(i) * 400 * time.Millisecond) }
	mk := func(i int, host, uri, method string, code int, ct string, size int) Transaction {
		return Transaction{
			ClientIP: client, ServerIP: netip.MustParseAddr("203.0.113.9"),
			ClientPort: 49152, ServerPort: 80,
			Method: method, URI: uri, Host: host,
			ReqHdr: http.Header{}, RespHdr: http.Header{},
			ReqTime: at(i), RespTime: at(i).Add(25 * time.Millisecond),
			StatusCode: code, ContentType: ct, BodySize: size,
		}
	}
	hops := []string{"lure.bench", "hop1.bench", "hop2.bench", "dropper.bench"}
	var txs []Transaction
	for i := 0; i+1 < len(hops); i++ {
		tx := mk(len(txs), hops[i], "/r", "GET", 302, "", 0)
		tx.RespHdr.Set("Location", "http://"+hops[i+1]+"/r")
		txs = append(txs, tx)
	}
	txs = append(txs, mk(len(txs), "dropper.bench", "/payload.exe", "GET", 200, "application/x-msdownload", 120000))
	for len(txs) < 200 {
		host := "cc" + string(rune('a'+len(txs)%8)) + ".bench"
		txs = append(txs, mk(len(txs), host, "/beacon", "POST", 200, "text/plain", 64))
	}
	benchChainTxs = txs
	return txs
}

func benchClassifyChain(b *testing.B, cfg detector.Config) {
	clf := classifierForBench(b)
	txs := chainTxsForBench(b)
	cfg.Shards = 1 // one client, one chain: a second shard would only idle
	b.ReportAllocs()
	b.ResetTimer()
	var st detector.Stats
	for i := 0; i < b.N; i++ {
		eng := detector.New(cfg, clf.flat)
		for _, tx := range txs {
			eng.Process(tx)
		}
		st = eng.Stats()
		if st.Classifications < len(txs)-4 {
			b.Fatalf("only %d classifications over %d transactions", st.Classifications, len(txs))
		}
	}
	b.ReportMetric(float64(st.Classifications), "classifications")
	b.ReportMetric(float64(st.Rebuilds), "rebuilds")
}

func BenchmarkClassifyIncremental(b *testing.B) {
	benchClassifyChain(b, detector.Config{RedirectThreshold: 3})
}

func BenchmarkClassifyScratch(b *testing.B) {
	benchClassifyChain(b, detector.Config{RedirectThreshold: 3, DisableIncremental: true})
}

// BenchmarkClassifyInstrumented replays the incremental chain with a
// metrics registry attached, which also arms the per-classification
// latency clock — the full per-transaction observability cost. The
// acceptance bar for the obs layer is ns/op within 5% of
// BenchmarkClassifyIncremental (`benchjson -gate` pins it in CI).
func BenchmarkClassifyInstrumented(b *testing.B) {
	benchClassifyChain(b, detector.Config{RedirectThreshold: 3, Metrics: obs.NewRegistry()})
}

// BenchmarkClassifyTraced replays the incremental chain with the full
// PR-10 tracing layer armed on top of the metrics registry: span trees
// recorded per transaction, every 64th committed to the ring, stage
// EWMAs fed on each span close. The controlled pair for the tracing
// layer is BenchmarkClassifyInstrumented — identical config minus the
// Tracer — and the acceptance bar is ns/op within 5% of it
// (ClassifyTraced/ClassifyInstrumented <= 1.05 via `benchjson -gate`),
// isolating the marginal cost of span recording from the latency-metric
// cost the instrumented engine already pays.
func BenchmarkClassifyTraced(b *testing.B) {
	reg := obs.NewRegistry()
	benchClassifyChain(b, detector.Config{
		RedirectThreshold: 3,
		Metrics:           reg,
		Tracer:            obs.NewTracer(reg, obs.TraceConfig{Sample: 64}),
	})
}

// Forest benchmarks: the trained ensemble scoring 37-feature vectors one
// at a time and through the batch kernel that amortizes dispatch across
// trees.

func forestVectorsForBench(b *testing.B) [][]float64 {
	b.Helper()
	ds := datasetForBench(b)
	n := 256
	if len(ds.X) < n {
		n = len(ds.X)
	}
	return ds.X[:n]
}

func BenchmarkForestScoreFlat(b *testing.B) {
	ff := classifierForBench(b).flat
	X := forestVectorsForBench(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ff.Score(X[i%len(X)])
	}
	if sink < 0 {
		b.Fatal("impossible score sum")
	}
}

// BenchmarkScoreBatchFlat scores the whole vector block per iteration
// (tree-outer traversal, zero allocations into a reused dst); the
// per-sample metric is what compares against the single-vector benches.
func BenchmarkScoreBatchFlat(b *testing.B) {
	ff := classifierForBench(b).flat
	X := forestVectorsForBench(b)
	dst := make([]float64, len(X))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ff.ScoreBatch(dst, X)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(X)), "ns/sample")
}

// BenchmarkTrainForest pins training cost — and, via allocs/op, the
// per-split scratch reuse in feature subsampling (featureSample used to
// allocate a fresh permutation at every split).
func BenchmarkTrainForest(b *testing.B) {
	ds := datasetForBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrainForest(ds, ml.ForestConfig{NumTrees: 5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Extraction-path benchmarks: the same 64 chain-prefix WCGs featurized by
// per-episode Extract (fresh cache and scratch per vector — the old
// dataset-builder loop) and by the batched slab path every dataset builder
// and experiment driver now uses. CI gates ExtractBatch/ExtractPerEpisode
// so the batch path stays materially faster per vector.

// benchExtractionWCGs caches the chain-prefix episode WCGs.
var benchExtractionWCGs []*WCG

func extractionWCGsForBench(b *testing.B) []*WCG {
	b.Helper()
	if benchExtractionWCGs == nil {
		txs := chainTxsForBench(b)
		for n := 10; n <= len(txs) && len(benchExtractionWCGs) < 64; n += 3 {
			benchExtractionWCGs = append(benchExtractionWCGs, BuildWCG(txs[:n]))
		}
	}
	return benchExtractionWCGs
}

func BenchmarkExtractPerEpisode(b *testing.B) {
	ws := extractionWCGsForBench(b)
	features.Extract(ws[0]) // warm caches so 1-iteration records are steady-state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if v := features.Extract(w); len(v) != NumFeatures {
				b.Fatal("bad vector")
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ws)), "ns/vector")
}

func BenchmarkExtractBatch(b *testing.B) {
	ws := extractionWCGsForBench(b)
	features.ExtractBatch(ws[:1]) // warm caches so 1-iteration records are steady-state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := features.ExtractBatch(ws); len(vs) != len(ws) {
			b.Fatal("lost vectors")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ws)), "ns/vector")
}

// Model-artifact benchmarks: importing a model saved as v1 JSON (full
// parse + node-stream rebuild) and loading the DMFB blob every deployment
// now writes (header decode + checksum sweep + slab validation, no parse).

func BenchmarkLoadForestJSON(b *testing.B) {
	jsonBytes, err := os.ReadFile("internal/ml/testdata/seed7.json")
	if err != nil {
		b.Fatal(err)
	}
	// Warm encoding/json's lazily built type caches so 1-iteration
	// records measure steady-state load cost, not first-call setup.
	if _, err := ml.LoadFlatForest(bytes.NewReader(jsonBytes)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(jsonBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.LoadFlatForest(bytes.NewReader(jsonBytes)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadFlatBlob(b *testing.B) {
	blob := classifierForBench(b).FlatForest().AppendFlatBlob(nil)
	// Warm hash/crc32's lazily built slicing-by-8 table so 1-iteration
	// records measure steady-state load cost, not first-call setup.
	if _, err := ml.LoadFlatBlob(bytes.NewReader(blob)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.LoadFlatBlob(bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
}
