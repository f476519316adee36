package obs

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestValidateMetricName(t *testing.T) {
	good := []string{
		"dynaminer_detector_transactions_total",
		"a_total",
		"x9_seconds",
		"dynaminer_proxy_relay_bytes",
	}
	for _, name := range good {
		if err := ValidateMetricName(name); err != nil {
			t.Errorf("ValidateMetricName(%q) = %v, want nil", name, err)
		}
	}
	bad := []string{
		"",
		"_total",              // no stem
		"Total_total",         // upper case
		"9lives_total",        // leading digit
		"dyna-miner_total",    // dash
		"dynaminer_requests",  // no unit suffix
		"dynaminer_ms_millis", // unknown unit
	}
	for _, name := range bad {
		if err := ValidateMetricName(name); err == nil {
			t.Errorf("ValidateMetricName(%q) = nil, want error", name)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("events_total", "help")
	c2 := r.Counter("events_total", "help")
	if c1 != c2 {
		t.Fatal("re-registering the same counter returned a different instance")
	}
	h1 := r.Histogram("lat_seconds", "help", LatencyBuckets)
	h2 := r.Histogram("lat_seconds", "help", LatencyBuckets)
	if h1 != h2 {
		t.Fatal("re-registering the same histogram returned a different instance")
	}
	v1 := r.GaugeVec("breaker_state_total", "help", "host")
	v2 := r.GaugeVec("breaker_state_total", "help", "host")
	if v1 != v2 {
		t.Fatal("re-registering the same gauge vec returned a different instance")
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("events_total", "help")
	mustPanic("kind collision", func() { r.Gauge("events_total", "help") })
	mustPanic("bad name", func() { r.Counter("Events", "help") })
	r.Histogram("lat_seconds", "help", LatencyBuckets)
	mustPanic("bounds mismatch", func() { r.Histogram("lat_seconds", "help", []float64{1, 2}) })
	r.GaugeVec("state_total", "help", "host")
	mustPanic("label mismatch", func() { r.GaugeVec("state_total", "help", "shard") })
	mustPanic("descending bounds", func() { r.Histogram("bad_seconds", "help", []float64{2, 1}) })
}

func TestCounterCellsAggregate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tx_total", "help")
	c.Inc()
	c.Add(4)
	a := c.NewCell()
	b := c.NewCell()
	a.Add(10)
	b.Inc()
	if got := a.Value(); got != 10 {
		t.Fatalf("cell a = %d, want 10", got)
	}
	if got := c.Value(); got != 16 {
		t.Fatalf("counter total = %d, want 16 (default 5 + cells 11)", got)
	}
	if got := r.CounterValue("tx_total"); got != 16 {
		t.Fatalf("CounterValue = %d, want 16", got)
	}
}

func TestCounterConcurrentCells(t *testing.T) {
	c := newCounter()
	const writers, per = 8, 10_000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		cell := c.NewCell()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				cell.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != writers*per {
		t.Fatalf("counter = %d, want %d", got, writers*per)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	var want float64
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
		want += v // same left-to-right float64 accumulation as the histogram
	}
	bounds, cum, sum := h.Snapshot()
	if sum != want {
		t.Fatalf("sum = %g, want %g", sum, want)
	}
	// le=0.01: {0.005, 0.01}; le=0.1: +0.05; le=1: +0.5; +Inf: +5 = the count.
	wantCum := []int64{2, 3, 4, 5}
	if len(bounds) != 3 || len(cum) != len(wantCum) {
		t.Fatalf("snapshot has %d bounds and %d counts, want 3 and %d", len(bounds), len(cum), len(wantCum))
	}
	for i := range cum {
		if cum[i] != wantCum[i] {
			t.Fatalf("cumulative[%d] = %d, want %d", i, cum[i], wantCum[i])
		}
	}
}

func TestGaugeVecChildren(t *testing.T) {
	v := &GaugeVec{label: "host", children: map[string]*Gauge{}}
	g := v.With("evil.example")
	g.Set(2)
	if v.With("evil.example") != g {
		t.Fatal("With returned a new child for an existing label value")
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d, want 1", v.Len())
	}
	v.Delete("evil.example")
	if v.Len() != 0 {
		t.Fatalf("Len after Delete = %d, want 0", v.Len())
	}
}

// TestGaugeVecSortedOnEveryCall renders a 12-child gauge family 20 times:
// the exposition lists the children in label order every time, whatever
// order the child map iterates in, and the snapshot holds every child.
func TestGaugeVecSortedOnEveryCall(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("dynaminer_breaker_state_total", "breaker state by host", "host")
	var want []string
	for i := 11; i >= 0; i-- {
		host := fmt.Sprintf("h%02d.example", i)
		v.With(host).Set(int64(i))
		want = append(want, fmt.Sprintf("dynaminer_breaker_state_total{host=%q} %d", host, i))
	}
	slices.Reverse(want)
	for call := 0; call < 20; call++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "dynaminer_breaker_state_total{") {
				got = append(got, line)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d: exposition children\n%s\nwant, in label order,\n%s", call, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		snap := r.Snapshot()
		if len(snap) != 1 || len(snap[0].Children) != 12 || snap[0].Children["h07.example"] != 7 {
			t.Fatalf("call %d: snapshot %+v, want the 12 children", call, snap)
		}
	}
}

func TestWritePrometheusParsesBack(t *testing.T) {
	r := NewRegistry()
	r.Counter("dynaminer_events_total", "events processed").Add(7)
	r.Gauge("dynaminer_watched_total", "watched clusters").Set(3)
	h := r.Histogram("dynaminer_classify_seconds", "classify latency", LatencyBuckets)
	h.Observe(0.001)
	h.Observe(2)
	v := r.GaugeVec("dynaminer_breaker_state_total", "breaker state by host", "host")
	v.With("a.example").Set(1)
	v.With(`b"?\.example`).Set(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	if got := fams["dynaminer_events_total"].Samples["dynaminer_events_total"]; got != 7 {
		t.Fatalf("counter sample = %g, want 7", got)
	}
	hist := fams["dynaminer_classify_seconds"]
	if hist.Type != "histogram" {
		t.Fatalf("histogram family type = %q", hist.Type)
	}
	if got := hist.Samples["dynaminer_classify_seconds_count"]; got != 2 {
		t.Fatalf("histogram count = %g, want 2", got)
	}
	vec := fams["dynaminer_breaker_state_total"]
	if len(vec.Samples) != 2 {
		t.Fatalf("gauge vec samples = %d, want 2: %v", len(vec.Samples), vec.Samples)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"untyped sample":   "loose_metric_total 3\n",
		"non-numeric":      "# TYPE x_total counter\nx_total banana\n",
		"unknown type":     "# TYPE x_total flavor\nx_total 1\n",
		"duplicate sample": "# TYPE x_total counter\nx_total 1\nx_total 2\n",
		"histogram hole":   "# TYPE h_seconds histogram\nh_seconds_sum 1\nh_seconds_count 1\n",
		"histogram decreasing": "# TYPE h_seconds histogram\n" +
			"h_seconds_bucket{le=\"1\"} 5\nh_seconds_bucket{le=\"2\"} 3\n" +
			"h_seconds_bucket{le=\"+Inf\"} 5\nh_seconds_sum 9\nh_seconds_count 5\n",
	}
	for name, payload := range cases {
		if _, err := ParseExposition(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: ParseExposition accepted malformed payload", name)
		}
	}
}

func TestSnapshotShapes(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "counter").Add(2)
	h := r.Histogram("h_seconds", "hist", []float64{1, 2})
	h.Observe(1.5)
	r.GaugeVec("v_total", "vec", "host").With("x").Set(9)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	byName := map[string]MetricSnapshot{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if byName["c_total"].Value != 2 || byName["c_total"].Type != "counter" {
		t.Fatalf("counter snapshot wrong: %+v", byName["c_total"])
	}
	hs := byName["h_seconds"]
	if hs.Count != 1 || hs.Sum != 1.5 || len(hs.Buckets) != 2 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
	if hs.Buckets[0].Count != 0 || hs.Buckets[1].Count != 1 {
		t.Fatalf("histogram cumulative buckets wrong: %+v", hs.Buckets)
	}
	if byName["v_total"].Children["x"] != 9 {
		t.Fatalf("vec snapshot wrong: %+v", byName["v_total"])
	}
}

// TestHistogramRenderUnderLoad renders the exposition and the snapshot
// while another goroutine observes. Every document must be consistent
// with itself — buckets monotone, +Inf equal to _count, no finite bucket
// above the count — which holds only if one pass over the buckets feeds
// all of those lines.
func TestHistogramRenderUnderLoad(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "hist", []float64{1, 2, 3})
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for v := 0; ; v++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(float64(v % 5))
			}
		}
	}()
	defer func() { close(stop); <-done }()

	var buf bytes.Buffer
	for i := 0; i < 2000; i++ {
		buf.Reset()
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("render %d: %v\n%s", i, err, buf.String())
		}
		hs := r.Snapshot()[0]
		prev := int64(0)
		for _, b := range hs.Buckets {
			if b.Count < prev || b.Count > hs.Count {
				t.Fatalf("snapshot %d: bucket le=%g holds %d after %d, count %d", i, b.UpperBound, b.Count, prev, hs.Count)
			}
			prev = b.Count
		}
	}
}
