// Package obs is DynaMiner's observability core: a dependency-free
// metrics registry (sharded atomic counters, gauges, fixed-bucket latency
// histograms), a Prometheus text-format exposition writer with a matching
// parser for tests and CI gates, an opt-in admin HTTP server
// (/metrics, /healthz, /snapshot, /debug/pprof/), and an append-only
// alert provenance journal that turns every on-the-wire alert into a
// replayable forensic artifact.
//
// Design rules:
//
//   - Zero allocations on the observation hot path. Counter.Inc/Add,
//     Gauge.Set/Add and Histogram.Observe touch only pre-allocated
//     atomics; everything name- or label-shaped is resolved once at
//     registration time (pinned by TestHotPathZeroAllocs).
//   - One registry per serving instance. A Monitor, a detector Engine, or a
//     Proxy owns (or is handed) a Registry; per-instance Stats structs are
//     bridged views over it, so two engines in one process never mix
//     counters.
//   - Sharded writers. A Counter hands out cache-line-padded Cells via
//     NewCell, one per engine shard; each shard increments its own cell
//     with no contention and reads it back for the per-shard Stats view,
//     while Counter.Value sums all cells for the registry-wide total.
//   - Metric names are validated at registration: snake_case with a unit
//     suffix (_seconds, _bytes, _total), unique per registry.
//   - No bare clock reads. The package never calls time.Now() bare; it
//     reads the wall clock through defaultClock, which tests can replace
//     (TestNoBareClockReads in the module root holds the rule).
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// defaultClock is the wall clock, as a function value so library code
// never calls time.Now() bare (TestNoBareClockReads).
var defaultClock = time.Now

// validSuffixes are the unit suffixes a metric name must carry.
var validSuffixes = []string{"_seconds", "_bytes", "_total"}

// ValidateMetricName reports why a metric name is unacceptable, or nil:
// names must be snake_case ([a-z][a-z0-9_]*) and end in a unit suffix.
func ValidateMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_' && i > 0:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return fmt.Errorf("obs: metric name %q is not snake_case", name)
		}
	}
	for _, s := range validSuffixes {
		if len(name) > len(s) && name[len(name)-len(s):] == s {
			return nil
		}
	}
	return fmt.Errorf("obs: metric name %q lacks a unit suffix (_seconds, _bytes, _total)", name)
}

// metricKind discriminates the registry entry types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindGaugeVec
	kindFloatGauge
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeVec, kindFloatGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// entry is one registered metric.
type entry struct {
	name string
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	vec     *GaugeVec
	fgauge  *FloatGauge
}

// Registry holds a set of named metrics. Registration is get-or-create:
// registering the same name with the same type and shape returns the
// existing metric (so engine shards sharing a registry bind to one
// family), while a name collision across types panics — that is a
// programming error, caught the first time the registering code runs.
//
// Registry is safe for concurrent use; observations on the returned
// metrics are lock-free.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*entry // guarded by mu
	order  []*entry          // guarded by mu; registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// register looks up or creates an entry, enforcing name and kind rules.
func (r *Registry) register(name, help string, kind metricKind) (*entry, bool) {
	if err := ValidateMetricName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, already a %s", name, kind, e.kind))
		}
		return e, false
	}
	e := &entry{name: name, help: help, kind: kind}
	r.byName[name] = e
	r.order = append(r.order, e)
	return e, true
}

// Counter returns the named counter, creating it on first registration.
func (r *Registry) Counter(name, help string) *Counter {
	e, fresh := r.register(name, help, kindCounter)
	if fresh {
		e.counter = newCounter()
	}
	return e.counter
}

// Gauge returns the named gauge, creating it on first registration.
func (r *Registry) Gauge(name, help string) *Gauge {
	e, fresh := r.register(name, help, kindGauge)
	if fresh {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// FloatGauge returns the named float-valued gauge, creating it on first
// registration.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	e, fresh := r.register(name, help, kindFloatGauge)
	if fresh {
		e.fgauge = &FloatGauge{}
	}
	return e.fgauge
}

// Histogram returns the named fixed-bucket histogram. bounds are the
// inclusive upper bucket bounds in ascending order (an implicit +Inf
// bucket is appended); re-registration must present identical bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	e, fresh := r.register(name, help, kindHistogram)
	if fresh {
		e.hist = newHistogram(bounds)
		return e.hist
	}
	if !sameBounds(e.hist.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
	}
	return e.hist
}

// GaugeVec returns the named one-label gauge family. Children are
// resolved once per label value via With — registration time for the
// series, never per observation.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	e, fresh := r.register(name, help, kindGaugeVec)
	if fresh {
		e.vec = &GaugeVec{label: label, children: make(map[string]*Gauge)}
		return e.vec
	}
	if e.vec.label != label {
		panic(fmt.Sprintf("obs: gauge vec %q re-registered with label %q, already %q", name, label, e.vec.label))
	}
	return e.vec
}

// entries snapshots the registration order under the lock.
func (r *Registry) entries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*entry(nil), r.order...)
}

// CounterValue returns the named counter's current total, or 0 when the
// name is absent or not a counter. A convenience for tests and bridges.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.Lock()
	e, ok := r.byName[name]
	r.mu.Unlock()
	if !ok || e.kind != kindCounter {
		return 0
	}
	return e.counter.Value()
}

// GaugeValue returns the named gauge's current value, or 0 when absent.
func (r *Registry) GaugeValue(name string) int64 {
	r.mu.Lock()
	e, ok := r.byName[name]
	r.mu.Unlock()
	if !ok || e.kind != kindGauge {
		return 0
	}
	return e.gauge.Value()
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, e := range r.entries() {
		if err := writeFamily(w, e); err != nil {
			return err
		}
	}
	return nil
}

// sortedChildren returns a vec's children in label-value order.
func (v *GaugeVec) sortedChildren() ([]string, map[string]*Gauge) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.children))
	snap := make(map[string]*Gauge, len(v.children))
	for k, g := range v.children {
		keys = append(keys, k)
		snap[k] = g
	}
	sort.Strings(keys)
	return keys, snap
}
