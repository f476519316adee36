package detector

// Pipeline-tracing integration tests: every alert's journal record links
// to a span tree in the ring whose stages nest inside the end-to-end
// detector.process span and match the classification path actually taken
// (incremental vs from-scratch rebuild), and Engine.Health reports the
// quarantine condition the /healthz endpoint serves.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/obs"
)

// traceFixture runs the infection stream through a fully traced engine
// and returns the tracer plus the journal records it produced.
func traceFixture(t *testing.T, disableIncremental bool) (*obs.Tracer, []obs.AlertRecord) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, 1)
	var buf bytes.Buffer
	e := New(Config{
		Shards:             1,
		RedirectThreshold:  3,
		DisableIncremental: disableIncremental,
		Metrics:            reg,
		Journal:            obs.NewJournalWriter(&buf),
		Tracer:             tracer,
	}, constScorer(0.9))
	var alerts []Alert
	for _, tx := range infectionStream() {
		alerts = append(alerts, e.ProcessTraced(tx, nil)...)
	}
	if len(alerts) != 1 {
		t.Fatalf("infection stream raised %d alerts, want 1", len(alerts))
	}
	recs, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("journal has %d records, want 1", len(recs))
	}
	return tracer, recs
}

// checkAlertTrace resolves a journal record's trace id and validates the
// span tree: rooted at detector.process, every stage span inside the
// root's interval, direct children summing within it, and a stage set
// consistent with the record's incremental flag.
func checkAlertTrace(t *testing.T, tracer *obs.Tracer, rec obs.AlertRecord) obs.TraceSnapshot {
	t.Helper()
	if rec.TraceID == 0 {
		t.Fatal("alert journal record carries no trace_id")
	}
	snap, ok := tracer.Find(rec.TraceID)
	if !ok {
		t.Fatalf("trace %d not resolvable in the ring", rec.TraceID)
	}
	if !snap.Alert {
		t.Fatalf("alerting trace %d not alert-promoted: %+v", rec.TraceID, snap)
	}
	if len(snap.Spans) == 0 || snap.Spans[0].Stage != "detector.process" || snap.Spans[0].Parent != -1 {
		t.Fatalf("trace not rooted at detector.process: %+v", snap.Spans)
	}
	root := snap.Spans[0]
	if !strings.Contains(root.Flags, "alert") {
		t.Fatalf("root span of an alerting trace lacks the alert flag: %+v", root)
	}
	rootEnd := root.Start + root.Dur
	var childSum float64
	const eps = 1e-6
	for i := 1; i < len(snap.Spans); i++ {
		sp := snap.Spans[i]
		if sp.Start+eps < root.Start || sp.Start+sp.Dur > rootEnd+eps {
			t.Fatalf("span %q [%v,%v]us escapes the end-to-end span [%v,%v]us",
				sp.Stage, sp.Start, sp.Start+sp.Dur, root.Start, rootEnd)
		}
		if sp.Parent == 0 {
			childSum += sp.Dur
		}
	}
	if childSum > root.Dur+eps {
		t.Fatalf("direct children sum to %vus, more than the %vus end-to-end span", childSum, root.Dur)
	}
	return snap
}

// stageSet indexes a snapshot's spans by stage name.
func stageSet(snap obs.TraceSnapshot) map[string]obs.TraceSpan {
	set := map[string]obs.TraceSpan{}
	for _, sp := range snap.Spans {
		set[sp.Stage] = sp
	}
	return set
}

// TestAlertTraceLinkage is the per-engine acceptance check: the alert's
// trace resolves to a well-formed tree whose feature-extraction stage
// matches the path the journal record says was taken.
func TestAlertTraceLinkage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"default", false}, {"rebuild-only", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tracer, recs := traceFixture(t, tc.disable)
			snap := checkAlertTrace(t, tracer, recs[0])
			set := stageSet(snap)

			classify, ok := set["detector.classify"]
			if !ok || classify.Parent != 0 {
				t.Fatalf("no detector.classify span under the root: %+v", snap.Spans)
			}
			if _, ok := set["ml.score"]; !ok {
				t.Fatalf("no ml.score span: %+v", snap.Spans)
			}
			if _, ok := set["journal.write"]; !ok {
				t.Fatalf("no journal.write span: %+v", snap.Spans)
			}

			_, inc := set["features.incremental"]
			_, reb := set["features.rebuild"]
			if recs[0].Incremental {
				if !inc || reb {
					t.Fatalf("record says incremental but spans say inc=%v rebuild=%v", inc, reb)
				}
				if !strings.Contains(classify.Flags, "incremental") {
					t.Fatalf("classify span flags %q lack incremental", classify.Flags)
				}
			} else {
				if !reb {
					t.Fatalf("record says rebuild but the trace has no features.rebuild span: %+v", snap.Spans)
				}
				if !strings.Contains(classify.Flags, "rebuild") {
					t.Fatalf("classify span flags %q lack rebuild", classify.Flags)
				}
			}
			if tc.disable && inc {
				t.Fatal("DisableIncremental engine recorded a features.incremental span")
			}
		})
	}
}

// TestUntracedEngineUnchanged: a nil tracer keeps Process allocation- and
// behavior-identical, and a restoring engine never traces.
func TestUntracedEngineUnchanged(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	if got := len(e.ProcessAll(infectionStream())); got != 1 {
		t.Fatalf("untraced engine raised %d alerts", got)
	}
}

// TestQuarantineSpanAttribution: a scorer panic flags the trace with
// error+quarantined so the kept trace carries its fault attribution.
func TestQuarantineSpanAttribution(t *testing.T) {
	tracer := obs.NewTracer(nil, 1)
	e := New(Config{Shards: 1, RedirectThreshold: 3, Tracer: tracer}, panicScorer{})
	for _, tx := range infectionStream() {
		if got := e.ProcessTraced(tx, nil); got != nil {
			t.Fatalf("poisoned classify returned alerts: %v", got)
		}
	}
	if e.Stats().Panics != 1 {
		t.Fatalf("stats %+v, want one panic", e.Stats())
	}
	snaps := tracer.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no traces kept at Sample=1")
	}
	last := snaps[len(snaps)-1]
	root := last.Spans[0]
	if root.Stage != "detector.process" ||
		!strings.Contains(root.Flags, "error") || !strings.Contains(root.Flags, "quarantined") {
		t.Fatalf("faulting trace root = %+v, want error+quarantined flags", root)
	}
	if !e.Health().Quarantined {
		t.Fatal("engine not quarantined after a scorer panic")
	}
}

// TestEngineHealthConditions drives the engine's readiness report: a
// fresh engine is clean and names its model version, and a watch that
// classifies and alerts leaves it clean (TestQuarantineSpanAttribution
// and TestHealthAggregatesShards hold the quarantined condition).
func TestEngineHealthConditions(t *testing.T) {
	fresh := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	st := fresh.Health()
	if st.Quarantined {
		t.Fatalf("fresh engine health = %+v, want clean", st)
	}
	if st.ModelVersion == "" {
		t.Fatal("health lacks a model version")
	}
	fresh.ProcessAll(relatedFollowUp(4))
	if st := fresh.Health(); st.Quarantined || st.ModelVersion != fresh.ModelVersion().String() {
		t.Fatalf("health after a clean watch = %+v, want clean with the serving version", st)
	}
}

// TestHealthAggregatesShards: one shard's quarantined cluster surfaces on
// the engine's health.
func TestHealthAggregatesShards(t *testing.T) {
	se := New(Config{RedirectThreshold: 3, Shards: 4}, panicScorer{})
	if st := se.Health(); st.Quarantined || st.ModelVersion == "" {
		t.Fatalf("fresh multi-shard health = %+v, want clean with a model version", st)
	}
	// The infection stream is one client: exactly one shard quarantines a
	// cluster, and the aggregate must report it.
	for _, tx := range infectionStream() {
		se.Process(tx)
	}
	quarantinedShards := 0
	for _, sh := range se.shards {
		if sh.st.quarantined() {
			quarantinedShards++
		}
	}
	if quarantinedShards != 1 {
		t.Fatalf("%d shards quarantined, want exactly one", quarantinedShards)
	}
	if st := se.Health(); !st.Quarantined {
		t.Fatalf("health after quarantining one shard = %+v, want quarantined", st)
	}
}

// TestTopologyRecomputesCounted pins the attribution of the classify
// histograms' two modes: on a hand-built watch, exactly the
// classifications whose transaction changed the WCG's structure (the clue
// itself, then the first call-back to each new host) move
// dynaminer_detector_topology_recomputes_total and flag their feature
// span "topology"; a repeat call-back does neither.
func TestTopologyRecomputesCounted(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disable bool
		want    []bool // per classification: did the topology recompute?
	}{
		{"incremental", false, []bool{true, false, true, false}},
		{"rebuild-only", true, []bool{true, true, true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tracer := obs.NewTracer(reg, 1)
			e := New(Config{
				Shards: 1, RedirectThreshold: 3, DisableIncremental: tc.disable,
				Metrics: reg, Tracer: tracer,
			}, constScorer(0.1))
			txs := append(infectionStream(),
				mkTx("d.evil", "/gate.php", "POST", 200, "text/plain", 40, "", 900*time.Millisecond),    // same host pair
				mkTx("cnc.evil", "/gate.php", "POST", 200, "text/plain", 40, "", 1300*time.Millisecond), // new host
				mkTx("cnc.evil", "/gate.php", "POST", 200, "text/plain", 40, "", 1700*time.Millisecond), // same again
			)
			for _, tx := range txs {
				e.ProcessTraced(tx, nil)
			}
			wantRuns := 0
			for _, topo := range tc.want {
				if topo {
					wantRuns++
				}
			}
			if got := reg.CounterValue("dynaminer_detector_classifications_total"); got != int64(len(tc.want)) {
				t.Fatalf("classifications = %d, want %d", got, len(tc.want))
			}
			if got := reg.CounterValue("dynaminer_detector_topology_recomputes_total"); got != int64(wantRuns) {
				t.Fatalf("topology recomputes = %d, want %d", got, wantRuns)
			}
			var flagged []bool
			for _, snap := range tracer.Snapshots() {
				for _, sp := range snap.Spans {
					if sp.Stage == "features.incremental" || sp.Stage == "features.rebuild" {
						flagged = append(flagged, strings.Contains(sp.Flags, "topology"))
					}
				}
			}
			if len(flagged) != len(tc.want) {
				t.Fatalf("%d feature spans in the ring, want %d", len(flagged), len(tc.want))
			}
			for i := range flagged {
				if flagged[i] != tc.want[i] {
					t.Fatalf("feature span %d topology flag = %v, want %v (all: %v)", i, flagged[i], tc.want[i], flagged)
				}
			}
		})
	}
}
