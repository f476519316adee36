package detector

import "dynaminer/internal/obs"

// engineMetrics binds one engine shard to the engine's observability
// registry. Every Stats field is backed by a per-shard Cell on a
// registry-wide counter family: shards each write their own cell with no
// cache-line contention, each shard's stats() view reads back exactly
// its own increments, and the registry's Counter.Value sums all shards
// for the /metrics total. The latency histograms and the watched gauge
// are shared across shards (they are concurrency-safe and have no
// per-shard view).
type engineMetrics struct {
	transactions    *obs.Cell
	weeded          *obs.Cell
	clusters        *obs.Cell
	evicted         *obs.Cell
	cluesFired      *obs.Cell
	classifications *obs.Cell
	alerts          *obs.Cell
	dropped         *obs.Cell
	rebuilds        *obs.Cell
	topologyRuns    *obs.Cell
	panics          *obs.Cell
	quarantined     *obs.Cell

	// watched tracks potential-infection WCGs currently under watch; it
	// moves at clue firings, watch closes and eviction.
	watched *obs.Gauge

	// Classify wall time split by path: the incremental hot path vs the
	// from-scratch rebuild fallback. Observed only when the engine is
	// timed (Config.Metrics or Config.Tracer set).
	classifyIncremental *obs.Histogram
	classifyRebuild     *obs.Histogram
	// score is the ERF ensemble's share of classify time.
	score *obs.Histogram
}

// newEngineMetrics registers (or re-binds to) the detector metric
// families on reg and allocates this shard's private counter cells.
func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	cell := func(name, help string) *obs.Cell {
		return reg.Counter(name, help).NewCell()
	}
	return &engineMetrics{
		transactions:    cell("dynaminer_detector_transactions_total", "Transactions ingested by the detection engine."),
		weeded:          cell("dynaminer_detector_weeded_total", "Transactions weeded out as trusted-vendor traffic."),
		clusters:        cell("dynaminer_detector_clusters_total", "Session clusters opened."),
		evicted:         cell("dynaminer_detector_evicted_total", "Session clusters evicted (TTL, janitor, or quarantine ladder)."),
		cluesFired:      cell("dynaminer_detector_clues_fired_total", "Infection clues fired (redirect chain + payload download)."),
		classifications: cell("dynaminer_detector_classifications_total", "Classifier invocations over watched WCGs."),
		alerts:          cell("dynaminer_detector_alerts_total", "Infection alerts emitted."),
		dropped:         cell("dynaminer_detector_dropped_total", "Transactions dropped because their session cluster already held 4096 transactions."),
		rebuilds:        cell("dynaminer_detector_rebuilds_total", "Classifications served by the from-scratch rebuild path."),
		topologyRuns:    cell("dynaminer_detector_topology_recomputes_total", "Classifications that refreshed the topology features because the WCG's undirected structure changed: O(n) for a new leaf host, the full sweep for anything else."),
		panics:          cell("dynaminer_detector_panics_total", "Recovered per-transaction faults (panics and non-finite scores)."),
		quarantined:     cell("dynaminer_detector_quarantined_total", "Clusters placed in quarantine after their first fault."),
		watched: reg.Gauge("dynaminer_detector_watched_total",
			"Potential-infection WCGs currently under watch."),
		classifyIncremental: reg.Histogram("dynaminer_detector_classify_incremental_seconds",
			"Classify wall time on the incremental path.", obs.LatencyBuckets),
		classifyRebuild: reg.Histogram("dynaminer_detector_classify_rebuild_seconds",
			"Classify wall time on the from-scratch rebuild path.", obs.LatencyBuckets),
		score: reg.Histogram("dynaminer_ml_score_seconds",
			"ERF ensemble scoring time per classification.", obs.LatencyBuckets),
	}
}

// engineStages holds the interned trace stage IDs for the detector's
// span tree. Interning happens once at engine construction so StartSpan
// on the hot path is an array write, never a map lookup.
type engineStages struct {
	process     obs.StageID
	classify    obs.StageID
	featInc     obs.StageID
	featRebuild obs.StageID
	score       obs.StageID
	journal     obs.StageID
}

func newEngineStages(t *obs.Tracer) engineStages {
	return engineStages{
		process:     t.Stage("detector.process"),
		classify:    t.Stage("detector.classify"),
		featInc:     t.Stage("features.incremental"),
		featRebuild: t.Stage("features.rebuild"),
		score:       t.Stage("ml.score"),
		journal:     t.Stage("journal.write"),
	}
}
