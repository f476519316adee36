package obs

// Readiness and runtime-health telemetry tests: every /healthz condition
// must flip the status code and its JSON field independently, and the
// runtime collector must publish live scheduler/heap/GC gauges.

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func healthzGet(t *testing.T, st HealthStatus) (int, HealthStatus) {
	t.Helper()
	h := HealthzHandler(func() HealthStatus { return st })
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	var got HealthStatus
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, w.Body.String())
	}
	return w.Code, got
}

// TestHealthzConditions: the quarantine condition must turn the endpoint
// 503 with the condition visible in the body; a clean status serves 200
// ready.
func TestHealthzConditions(t *testing.T) {
	code, got := healthzGet(t, HealthStatus{ModelVersion: "v3"})
	if code != 200 || !got.Ready || got.ModelVersion != "v3" {
		t.Fatalf("clean healthz = %d %+v", code, got)
	}

	cases := []struct {
		name  string
		st    HealthStatus
		check func(HealthStatus) bool
	}{
		{"quarantined", HealthStatus{Quarantined: true}, func(h HealthStatus) bool { return h.Quarantined }},
	}
	for _, tc := range cases {
		code, got := healthzGet(t, tc.st)
		if code != 503 {
			t.Errorf("%s healthz = %d, want 503", tc.name, code)
		}
		if got.Ready || !tc.check(got) {
			t.Errorf("%s healthz body = %+v, want not-ready with the condition set", tc.name, got)
		}
	}

	// Ready is derived, not trusted: a source claiming Ready while also
	// quarantined still serves 503.
	if code, got := healthzGet(t, HealthStatus{Ready: true, Quarantined: true}); code != 503 || got.Ready {
		t.Fatalf("lying source healthz = %d %+v, want derived 503", code, got)
	}
}

// TestHealthzWithoutSource keeps the legacy contract: no health source
// means a plain-text liveness "ok".
func TestHealthzWithoutSource(t *testing.T) {
	w := httptest.NewRecorder()
	HealthzHandler(nil).ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != 200 || w.Body.String() != "ok\n" {
		t.Fatalf("sourceless /healthz = %d %q", w.Code, w.Body.String())
	}
}

// TestRuntimeCollector: one Collect populates every runtime gauge with a
// live (nonzero where guaranteed) sample.
func TestRuntimeCollector(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	c.Collect()
	if g := reg.GaugeValue("dynaminer_runtime_goroutines_total"); g < 2 {
		t.Fatalf("goroutines gauge = %v, want at least the test runner's", g)
	}
	if g := reg.GaugeValue("dynaminer_runtime_heap_bytes"); g <= 0 {
		t.Fatalf("heap gauge = %v, want > 0", g)
	}
	names := map[string]bool{}
	for _, s := range reg.Snapshot() {
		names[s.Name] = true
	}
	for _, want := range []string{
		"dynaminer_runtime_goroutines_total",
		"dynaminer_runtime_heap_bytes",
		"dynaminer_runtime_gc_cycles_total",
		"dynaminer_runtime_gc_pause_p99_seconds",
		"dynaminer_runtime_sched_latency_p99_seconds",
	} {
		if !names[want] {
			t.Errorf("runtime collector did not register %s", want)
		}
	}
	c.Close() // never started: must not hang
}

// TestStartRuntimeCollector: the ticker loop samples on its own and Close
// is idempotent and prompt.
func TestStartRuntimeCollector(t *testing.T) {
	reg := NewRegistry()
	c := StartRuntimeCollector(reg, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for reg.GaugeValue("dynaminer_runtime_goroutines_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("collector ticker never sampled")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	c.Close()
}
