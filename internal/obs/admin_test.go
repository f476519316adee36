package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"
)

func adminGet(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

func TestAdminEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("dynaminer_test_events_total", "events").Add(11)
	r.Histogram("dynaminer_test_lat_seconds", "latency", LatencyBuckets).Observe(0.02)

	a, err := StartAdmin("127.0.0.1:0", r, AdminOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	code, body := adminGet(t, a.Addr(), "/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = adminGet(t, a.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	fams, err := ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics not valid exposition: %v\n%s", err, body)
	}
	if got := fams["dynaminer_test_events_total"].Samples["dynaminer_test_events_total"]; got != 11 {
		t.Fatalf("/metrics counter = %g, want 11", got)
	}

	code, body = adminGet(t, a.Addr(), "/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot = %d", code)
	}
	var snap []MetricSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v\n%s", err, body)
	}
	// The two metrics registered above plus the five runtime health gauges
	// the admin server's collector registers on the first registry.
	if len(snap) != 7 {
		t.Fatalf("/snapshot has %d metrics, want 7", len(snap))
	}
	names := make(map[string]bool, len(snap))
	for _, s := range snap {
		names[s.Name] = true
	}
	for _, want := range []string{"dynaminer_runtime_goroutines_total", "dynaminer_runtime_heap_bytes",
		"dynaminer_runtime_gc_cycles_total", "dynaminer_runtime_gc_pause_p99_seconds",
		"dynaminer_runtime_sched_latency_p99_seconds"} {
		if !names[want] {
			t.Fatalf("/snapshot missing runtime gauge %s", want)
		}
	}

	code, _ = adminGet(t, a.Addr(), "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestAdminCloseIdempotentAndReleasesPort(t *testing.T) {
	a, err := StartAdmin("127.0.0.1:0", NewRegistry(), AdminOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()
	if err := a.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The port must be re-bindable after Close.
	b, err := StartAdmin(addr, NewRegistry(), AdminOptions{})
	if err != nil {
		t.Fatalf("rebind %s after Close: %v", addr, err)
	}
	b.Close()
}

// TestNoGoroutineWithoutStartAdmin pins the opt-in guarantee: merely
// using registries and metrics must not spin up server goroutines.
func TestNoGoroutineWithoutStartAdmin(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRegistry()
	r.Counter("quiet_total", "no servers here").Inc()
	r.Histogram("quiet_seconds", "still none", LatencyBuckets).Observe(1)
	time.Sleep(10 * time.Millisecond)
	after := runtime.NumGoroutine()
	if after > before {
		t.Fatalf("metric use grew goroutines %d -> %d without StartAdmin", before, after)
	}
}
