package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (workloads_test.go holds the two
// in step); Bound is meaningful for end-to-end metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median by which the metric may worsen
}

// endToEnd is what a user of the engine sees. Every metric is defined on
// every workload (see README.md for the per-workload measurement points).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tx_per_s", "1/s", "higher", 0.25},
	{"verdict_latency_p50_us", "us", "lower", 0.25},
	{"verdict_latency_p95_us", "us", "lower", 0.25},
	{"allocs_per_tx", "count", "lower", 0.10},
	{"alloc_kb_per_tx", "kB", "lower", 0.15},
}

// perLayer metrics are prefixed with the module they measure; the
// dynaminer.* ones describe the whole path.
var perLayer = []metricDef{
	{Name: "pcap.read_ms", Unit: "ms", Better: "lower"},
	{Name: "pcap.reassemble_ms", Unit: "ms", Better: "lower"},
	{Name: "pcap.packets", Unit: "count", Better: "lower"},
	{Name: "pcap.streams", Unit: "count", Better: "lower"},
	{Name: "pcap.capture_mb", Unit: "MB", Better: "lower"},
	{Name: "pcap.reassemble_ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "pcap.allocs_per_packet", Unit: "count", Better: "lower"},

	{Name: "httpstream.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "httpstream.txs", Unit: "count", Better: "lower"},
	{Name: "httpstream.conversations", Unit: "count", Better: "lower"},
	{Name: "httpstream.extract_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "httpstream.alloc_kb_per_tx", Unit: "kB", Better: "lower"},
	{Name: "httpstream.body_mb", Unit: "MB", Better: "lower"},

	{Name: "detector.process_ms", Unit: "ms", Better: "lower"},
	{Name: "detector.process_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "detector.transactions", Unit: "count", Better: "higher"},
	{Name: "detector.weeded", Unit: "count", Better: "lower"},
	{Name: "detector.clusters", Unit: "count", Better: "lower"},
	{Name: "detector.evicted", Unit: "count", Better: "lower"},
	{Name: "detector.clues", Unit: "count", Better: "lower"},
	{Name: "detector.classifications", Unit: "count", Better: "lower"},
	{Name: "detector.rebuilds", Unit: "count", Better: "lower"},
	{Name: "detector.alerts", Unit: "count", Better: "higher"},
	{Name: "detector.dropped", Unit: "count", Better: "lower"},
	{Name: "detector.degraded", Unit: "count", Better: "lower"},
	{Name: "detector.shed", Unit: "count", Better: "lower"},
	{Name: "detector.panics", Unit: "count", Better: "lower"},
	{Name: "detector.quarantined", Unit: "count", Better: "lower"},
	{Name: "detector.classify_share", Unit: "ratio", Better: "lower"},
	{Name: "detector.sniff_ms", Unit: "ms", Better: "lower"},
	{Name: "detector.sniff_mb", Unit: "MB", Better: "lower"},

	{Name: "wcg.build_us_per_client", Unit: "us", Better: "lower"},
	{Name: "wcg.append_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "wcg.nodes_mean", Unit: "count", Better: "lower"},
	{Name: "wcg.edges_mean", Unit: "count", Better: "lower"},

	{Name: "features.extract_us_per_wcg", Unit: "us", Better: "lower"},
	{Name: "features.incremental_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "features.topology_us_per_change", Unit: "us", Better: "lower"},
	{Name: "features.topology_change_share", Unit: "ratio", Better: "lower"},

	{Name: "ml.score_ns_per_vector", Unit: "ns", Better: "lower"},
	{Name: "ml.load_blob_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.trees", Unit: "count", Better: "lower"},
	{Name: "ml.nodes", Unit: "count", Better: "lower"},

	{Name: "obs.journal_append_us", Unit: "us", Better: "lower"},
	{Name: "obs.journal_records", Unit: "count", Better: "higher"},
	{Name: "obs.journal_kb", Unit: "kB", Better: "lower"},
	{Name: "obs.metrics_overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "dynaminer.passes", Unit: "count", Better: "higher"},
	{Name: "dynaminer.pass_ms_median", Unit: "ms", Better: "lower"},
	{Name: "dynaminer.pass_ms_iqr", Unit: "ms", Better: "lower"},
	{Name: "dynaminer.layer_sum_ms", Unit: "ms", Better: "lower"},
	{Name: "dynaminer.layer_sum_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dynaminer.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dynaminer.wire_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dynaminer.first_alert_ms", Unit: "ms", Better: "lower"},
	{Name: "dynaminer.first_alert_share", Unit: "ratio", Better: "lower"},
	{Name: "dynaminer.detection_recall", Unit: "ratio", Better: "higher"},
	{Name: "dynaminer.false_alert_rate", Unit: "ratio", Better: "lower"},
	{Name: "dynaminer.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "dynaminer.gc_cycles_per_pass", Unit: "count", Better: "lower"},
	{Name: "dynaminer.gc_pause_ms_per_pass", Unit: "ms", Better: "lower"},
}
