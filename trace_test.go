package dynaminer

// PR-10 acceptance tests for pipeline tracing: every alert of a seeded
// 55-episode run links, via its journal trace_id, to a span tree in the
// ring whose stage spans nest inside the end-to-end detector.process
// span and whose classify span says append or reseed as the record does; and
// the admin surface (/metrics, /snapshot, /trace) stays well-formed
// while classification runs concurrently (exercised under -race in CI).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dynaminer/internal/obs"
)

// TestSeededRunAlertTraceLinkage is the PR acceptance criterion on the
// full seeded corpus across two shards.
func TestSeededRunAlertTraceLinkage(t *testing.T) {
	eps, clf := obsFixture(t)
	reg := NewMetricsRegistry()
	// No sampling: the ring holds alert traces alone, and the run raises
	// fewer alerts than the ring holds, so none is evicted.
	tracer := NewTracer(reg, 0)
	var buf bytes.Buffer
	cfg := MonitorConfig{RedirectThreshold: 1, Shards: 2, Metrics: reg, Tracer: tracer}
	cfg.Journal = obs.NewJournalWriter(&buf)
	m := NewMonitor(cfg, clf)
	alerts := m.ProcessAll(obsStream(eps))
	if len(alerts) == 0 {
		t.Fatal("seeded run raised no alerts; the linkage check is vacuous")
	}
	recs, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(alerts) {
		t.Fatalf("journal has %d records for %d alerts", len(recs), len(alerts))
	}

	for i, rec := range recs {
		if rec.TraceID == 0 {
			t.Fatalf("alert record %d carries no trace_id", i)
		}
		snap, ok := tracer.Find(rec.TraceID)
		if !ok {
			t.Fatalf("alert record %d: trace %d not in the ring", i, rec.TraceID)
		}
		if !snap.Alert {
			t.Fatalf("alert record %d: trace %d not alert-promoted", i, rec.TraceID)
		}
		if len(snap.Spans) == 0 || snap.Spans[0].Stage != "detector.process" {
			t.Fatalf("alert record %d: trace not rooted at detector.process: %+v", i, snap.Spans)
		}
		root := snap.Spans[0]
		rootEnd := root.Start + root.Dur
		const eps = 1e-6
		var childSum float64
		names := map[string]bool{}
		classifyFlags := ""
		for j, sp := range snap.Spans {
			names[sp.Stage] = true
			if sp.Stage == "detector.classify" {
				classifyFlags = sp.Flags
			}
			if j == 0 {
				continue
			}
			if sp.Start+eps < root.Start || sp.Start+sp.Dur > rootEnd+eps {
				t.Fatalf("alert record %d: span %q [%v,%v]us escapes the end-to-end span [%v,%v]us",
					i, sp.Stage, sp.Start, sp.Start+sp.Dur, root.Start, rootEnd)
			}
			if sp.Parent == 0 {
				childSum += sp.Dur
			}
		}
		if childSum > root.Dur+eps {
			t.Fatalf("alert record %d: direct children sum to %vus inside a %vus root", i, childSum, root.Dur)
		}
		if !names["detector.classify"] || !names["features.incremental"] || !names["ml.score"] || !names["journal.write"] {
			t.Fatalf("alert record %d: stage set incomplete: %+v", i, names)
		}
		// The trace must tell the same append-or-reseed story as the
		// provenance record.
		mode := "incremental"
		if !rec.Incremental {
			mode = "reseed"
		}
		if !strings.Contains(classifyFlags, mode) {
			t.Fatalf("alert record %d says %s, its classify span is flagged %q", i, mode, classifyFlags)
		}
		// Shard attribution rides on the root span's arg; with 2 shards
		// it must be a valid shard base.
		if root.Arg < 0 || root.Arg >= 2 {
			t.Fatalf("alert record %d: root span shard attribution arg=%d with 2 shards", i, root.Arg)
		}
	}

	if got := int(reg.CounterValue("dynaminer_trace_alerts_total")); got != len(alerts) {
		t.Fatalf("trace alert counter = %d, run raised %d alerts", got, len(alerts))
	}
	// Unsampled, a tree is kept for its alert and for nothing else.
	if got := int(reg.CounterValue("dynaminer_trace_recorded_total")); got != len(alerts) {
		t.Fatalf("tracer kept %d span trees, run raised %d alerts", got, len(alerts))
	}
	// Every pipeline stage histogram observed traffic during the run.
	for _, h := range []string{
		"dynaminer_stage_detector_process_seconds",
		"dynaminer_stage_detector_classify_seconds",
		"dynaminer_stage_ml_score_seconds",
		"dynaminer_stage_journal_write_seconds",
	} {
		found := false
		for _, s := range reg.Snapshot() {
			if s.Name == h {
				found = true
			}
		}
		if !found {
			t.Errorf("stage histogram %s missing from the registry", h)
		}
	}
}

// TestAdminSurfaceUnderConcurrentLoad hammers /metrics, /snapshot and
// /trace while the monitor classifies live traffic; run under -race in
// tier-2 CI, it pins both data-race freedom and that every concurrent
// read returns a well-formed document.
func TestAdminSurfaceUnderConcurrentLoad(t *testing.T) {
	eps, clf := obsFixture(t)
	reg := NewMetricsRegistry()
	tracer := NewTracer(reg, 2)
	cfg := MonitorConfig{RedirectThreshold: 1, Shards: 2, Metrics: reg, Tracer: tracer}
	m := NewMonitor(cfg, clf)
	addr, err := m.StartAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	stream := obsStream(eps)
	done := make(chan struct{})
	var wg sync.WaitGroup
	fetch := func(path string) (int, []byte, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	hammer := func(path string, check func([]byte) error) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			code, body, err := fetch(path)
			if err != nil || code != http.StatusOK {
				t.Errorf("GET %s = %d, %v", path, code, err)
				return
			}
			if err := check(body); err != nil {
				t.Errorf("GET %s returned a malformed document: %v\n%s", path, err, body)
				return
			}
		}
	}
	wg.Add(3)
	go hammer("/metrics", func(b []byte) error {
		_, err := obs.ParseExposition(bytes.NewReader(b))
		return err
	})
	go hammer("/snapshot", func(b []byte) error {
		var snap []obs.MetricSnapshot
		return json.Unmarshal(b, &snap)
	})
	go hammer("/trace", func(b []byte) error {
		var file struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		return json.Unmarshal(b, &file)
	})

	for _, tx := range stream {
		m.Process(tx)
	}
	close(done)
	wg.Wait()

	// Id resolution must also hold up after the run.
	snaps := tracer.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("Sample=2 over the seeded run kept no traces")
	}
	last := snaps[len(snaps)-1].ID
	code, body, err := fetch("/trace?id=" + strconv.FormatUint(last, 10))
	var snap TraceSnapshot
	if err != nil || code != http.StatusOK || json.Unmarshal(body, &snap) != nil || snap.ID != last {
		t.Fatalf("/trace?id=%d = %d, %v\n%s", last, code, err, body)
	}
}
