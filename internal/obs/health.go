package obs

import (
	"runtime/metrics"
	"sync"
	"time"
)

// HealthStatus is the /healthz readiness report: whether a node is ready
// to take traffic, the one condition that makes it not ready —
// Quarantined, at least one cluster carries a quarantine strike — and the
// serving model generation.
type HealthStatus struct {
	Ready        bool   `json:"ready"`
	Quarantined  bool   `json:"quarantined"`
	ModelVersion string `json:"model_version,omitempty"`
}

// HealthFunc supplies the current readiness conditions; the admin server
// calls it on every /healthz request. Ready is derived by the endpoint
// (no condition set), so sources only report conditions.
type HealthFunc func() HealthStatus

// runtimeSamples are the runtime/metrics series the health collector
// publishes. Histogram-valued series surface as quantile gauges.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// RuntimeCollector publishes process health telemetry — goroutine count,
// live heap bytes, GC cycles, GC pause and scheduler latency quantiles —
// as registry gauges, refreshed by a recover-guarded background ticker.
// It is the "is the process itself healthy" counterpart to the pipeline
// stage histograms.
type RuntimeCollector struct {
	goroutines *Gauge
	heapBytes  *Gauge
	gcCycles   *Gauge
	gcPauseP99 *FloatGauge
	schedP99   *FloatGauge

	samples []metrics.Sample

	mu        sync.Mutex // serializes Collect (samples reuse)
	closeOnce sync.Once
	started   bool // set before the ticker goroutine launches
	stop      chan struct{}
	done      chan struct{}
}

// NewRuntimeCollector registers the runtime gauges on reg and performs an
// initial collection; it does not start the ticker (StartRuntimeCollector
// does).
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	c := &RuntimeCollector{
		goroutines: reg.Gauge("dynaminer_runtime_goroutines_total", "live goroutines in the process"),
		heapBytes:  reg.Gauge("dynaminer_runtime_heap_bytes", "bytes of live heap objects"),
		gcCycles:   reg.Gauge("dynaminer_runtime_gc_cycles_total", "completed GC cycles"),
		gcPauseP99: reg.FloatGauge("dynaminer_runtime_gc_pause_p99_seconds", "p99 stop-the-world GC pause"),
		schedP99:   reg.FloatGauge("dynaminer_runtime_sched_latency_p99_seconds", "p99 goroutine scheduling latency"),
		samples:    make([]metrics.Sample, len(runtimeSamples)),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for i, name := range runtimeSamples {
		c.samples[i].Name = name
	}
	c.Collect()
	return c
}

// Collect reads runtime/metrics once and refreshes every gauge. Safe for
// concurrent use; cheap enough for a ticker or a test to call directly.
func (c *RuntimeCollector) Collect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	metrics.Read(c.samples)
	for i, name := range runtimeSamples {
		s := &c.samples[i]
		switch name {
		case "/sched/goroutines:goroutines":
			if s.Value.Kind() == metrics.KindUint64 {
				c.goroutines.Set(int64(s.Value.Uint64()))
			}
		case "/memory/classes/heap/objects:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				c.heapBytes.Set(int64(s.Value.Uint64()))
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == metrics.KindUint64 {
				c.gcCycles.Set(int64(s.Value.Uint64()))
			}
		case "/gc/pauses:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				c.gcPauseP99.Set(histogramQuantile(s.Value.Float64Histogram(), 0.99))
			}
		case "/sched/latencies:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				c.schedP99.Set(histogramQuantile(s.Value.Float64Histogram(), 0.99))
			}
		}
	}
}

// defaultCollectPeriod is the runtime collector's refresh period when
// none is given, and the one an admin server's collector always runs at.
const defaultCollectPeriod = 10 * time.Second

// StartRuntimeCollector builds a collector on reg and refreshes it every
// interval (0 selects defaultCollectPeriod) until Close. The ticker
// goroutine is recover-guarded: a panicking collection stops telemetry,
// never the process.
func StartRuntimeCollector(reg *Registry, interval time.Duration) *RuntimeCollector {
	c := NewRuntimeCollector(reg)
	if interval <= 0 {
		interval = defaultCollectPeriod
	}
	c.started = true
	go func() {
		defer close(c.done)
		defer func() {
			// Telemetry must never take the serving process down.
			_ = recover()
		}()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.Collect()
			}
		}
	}()
	return c
}

// Close stops the ticker goroutine and waits for it to exit. Idempotent;
// harmless on a collector that was never started.
func (c *RuntimeCollector) Close() {
	c.closeOnce.Do(func() {
		close(c.stop)
		if c.started {
			<-c.done
		}
	})
}

// histogramQuantile approximates quantile q from a runtime/metrics
// Float64Histogram using each bucket's upper bound (the conservative
// side). Returns 0 for an empty histogram.
func histogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > target {
			// Buckets[i+1] is bucket i's upper bound; the last bucket's
			// bound may be +Inf — fall back to its finite lower bound.
			hi := h.Buckets[i+1]
			if hi > 1e18 || hi != hi { // +Inf or NaN guard
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
