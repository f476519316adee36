package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Cell is one cache-line-padded counter stripe. Engine shards bind their
// own cell via Counter.NewCell, so concurrent shards never contend on a
// cache line, and a shard's own increments are readable back as the
// per-shard Stats view.
type Cell struct {
	n atomic.Int64
	// Pad the cell out to a cache line so independently allocated cells
	// that happen to land adjacently never false-share.
	_ [56]byte
}

// Inc adds 1 and returns the cell's new value.
func (c *Cell) Inc() int64 { return c.n.Add(1) }

// Add adds d and returns the cell's new value.
func (c *Cell) Add(d int64) int64 { return c.n.Add(d) }

// Value reads the cell.
func (c *Cell) Value() int64 { return c.n.Load() }

// Counter is a monotonically increasing metric, striped across cells.
// Inc/Add on the counter itself hit the default cell; hot concurrent
// writers take a private cell with NewCell. Value sums every cell.
type Counter struct {
	def Cell

	mu    sync.Mutex
	cells []*Cell // guarded by mu; extra stripes handed out by NewCell
}

func newCounter() *Counter { return &Counter{} }

// Inc increments the default cell.
func (c *Counter) Inc() { c.def.n.Add(1) }

// Add adds d to the default cell.
func (c *Counter) Add(d int64) { c.def.n.Add(d) }

// NewCell appends a fresh private stripe and returns it. Call once per
// writer at setup time, not on the hot path.
func (c *Counter) NewCell() *Cell {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell := &Cell{}
	c.cells = append(c.cells, cell)
	return cell
}

// Value returns the counter total: the default cell plus every stripe.
func (c *Counter) Value() int64 {
	total := c.def.n.Load()
	c.mu.Lock()
	cells := c.cells
	c.mu.Unlock()
	for _, cell := range cells {
		total += cell.n.Load()
	}
	return total
}

// Gauge is an instantaneous int64 value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an instantaneous float64 value (seconds-valued runtime
// telemetry: GC pause quantiles, scheduler latency), stored as float64
// bits in an atomic word.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the gauge.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a one-label gauge family. Children are created lazily by
// With — once per label value, off the hot path — and observed through
// the returned *Gauge with no further lookups.
type GaugeVec struct {
	label string

	mu       sync.Mutex
	children map[string]*Gauge // guarded by mu; label value -> child
}

// With returns the child gauge for the label value, creating it on first
// use. Callers should cache the result; With takes a lock.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.children[value]
	if !ok {
		g = &Gauge{}
		v.children[value] = g
	}
	return g
}

// Delete drops the child for the label value (e.g. a circuit breaker
// whose host healed and whose bookkeeping was released).
func (v *GaugeVec) Delete(value string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.children, value)
}

// Len returns the number of live children.
func (v *GaugeVec) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.children)
}

// LatencyBuckets is the default histogram bucket layout for latency
// metrics: 10µs to ~40s in quadrupling steps, upper bounds in seconds.
var LatencyBuckets = []float64{
	10e-6, 40e-6, 160e-6, 640e-6, 2.56e-3, 10.24e-3, 40.96e-3,
	163.84e-3, 655.36e-3, 2.62144, 10.48576, 41.94304,
}

// Histogram is a fixed-bucket histogram. The bucket layout is resolved at
// registration; Observe performs a short bounded scan plus atomic adds
// and allocates nothing.
type Histogram struct {
	bounds []float64      // inclusive upper bounds, ascending
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns the upper bounds, the cumulative count at each bound
// (Prometheus `le` semantics) followed by the +Inf bucket, and the sum of
// observed values. The last cumulative count is the observation count:
// both come from this one pass over the buckets, so a reader racing
// Observe still sees monotone buckets whose +Inf equals the count.
func (h *Histogram) Snapshot() (bounds []float64, cum []int64, sum float64) {
	cum = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return append([]float64(nil), h.bounds...), cum, math.Float64frombits(h.sum.Load())
}

// sameBounds reports whether two bucket layouts are identical.
func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
