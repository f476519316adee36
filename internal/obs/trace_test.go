package obs

// Tracing-layer tests: the zero-alloc pin for the sampled-out hot path,
// head sampling, alert promotion, ring eviction, and the two export
// surfaces (Chrome trace-event JSON, /trace).

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeTraceClock is a deterministic manual clock for span timing tests,
// installed as the package clock (SetClock) until the test ends; a tracer
// built afterwards stamps its spans with it. Tests that install it must
// not run in parallel.
type fakeTraceClock struct{ at time.Time }

func newFakeTraceClock(t *testing.T) *fakeTraceClock {
	c := &fakeTraceClock{at: time.Unix(1700000000, 0)}
	t.Cleanup(SetClock(func() time.Time { return c.at }))
	return c
}

func (c *fakeTraceClock) advance(d time.Duration) { c.at = c.at.Add(d) }
func (c *fakeTraceClock) spanOf(s StageID, at *ActiveTrace, d time.Duration) {
	i := at.StartSpan(s)
	c.advance(d)
	at.EndSpan(i)
}

// TestTraceHotPathAllocs is the tentpole perf pin: a sampled-out
// transaction (Begin, a nested span pair, Finish) and a stage observation
// outside any tree (ObserveStage, once per reassembled conversation) must
// not allocate.
func TestTraceHotPathAllocs(t *testing.T) {
	tr := NewTracer(nil, 1<<40)
	root := tr.Stage("test.root")
	child := tr.Stage("test.child")
	allocs := testing.AllocsPerRun(200, func() {
		tr.ObserveStage(child, 0.001)
		at := tr.Begin()
		r := at.StartSpan(root)
		c := at.StartSpan(child)
		at.SetArg(c, 3)
		at.EndSpan(c)
		at.Annotate(r, SpanIncremental)
		at.EndSpan(r)
		tr.Finish(at)
	})
	if allocs != 0 {
		t.Fatalf("sampled-out trace path allocates %.1f times per transaction, want 0", allocs)
	}
	if got := len(tr.Snapshots()); got != 0 {
		t.Fatalf("sampled-out traces committed %d snapshots, want 0", got)
	}
}

// TestTraceNilSafety pins the untraced deployment cost: every ActiveTrace
// method and Tracer entry point must be a safe no-op on nil receivers.
func TestTraceNilSafety(t *testing.T) {
	var tr *Tracer
	at := tr.Begin()
	if at != nil {
		t.Fatal("nil tracer Begin returned a trace")
	}
	if i := at.StartSpan(0); i != -1 {
		t.Fatalf("nil trace StartSpan = %d, want -1", i)
	}
	at.EndSpan(0)
	at.Annotate(0, SpanError)
	at.SetArg(0, 7)
	at.MarkAlert()
	if at.ID() != 0 {
		t.Fatal("nil trace has a nonzero id")
	}
	tr.Finish(at)
	tr.ObserveStage(0, 0.1)
	if tr.Snapshots() != nil {
		t.Fatal("nil tracer returned snapshots")
	}
	if _, ok := tr.Find(1); ok {
		t.Fatal("nil tracer found a trace")
	}
}

// TestTraceHeadSampling: Sample=N keeps exactly every Nth transaction,
// ids are dense from 1, the sampled counter agrees, and the stage
// histogram observes every span.
func TestTraceHeadSampling(t *testing.T) {
	reg := NewRegistry()
	clock := newFakeTraceClock(t)
	tr := NewTracer(reg, 4)
	st := tr.Stage("test.stage")
	for i := 0; i < 10; i++ {
		at := tr.Begin()
		clock.spanOf(st, at, time.Millisecond)
		tr.Finish(at)
	}
	snaps := tr.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("Sample=4 over 10 txs kept %d traces, want 2", len(snaps))
	}
	if snaps[0].ID != 4 || snaps[1].ID != 8 {
		t.Fatalf("kept trace ids %d,%d; want 4,8 (every 4th, ids dense from 1)", snaps[0].ID, snaps[1].ID)
	}
	if !snaps[0].Sampled || snaps[0].Alert {
		t.Fatalf("kept trace promotion bits wrong: %+v", snaps[0])
	}
	if got := reg.CounterValue("dynaminer_trace_sampled_total"); got != 2 {
		t.Fatalf("sampled counter = %v, want 2", got)
	}
	if got := reg.CounterValue("dynaminer_trace_recorded_total"); got != 2 {
		t.Fatalf("recorded counter = %v, want 2", got)
	}
	// Sampling picks the trees the ring keeps, never the observations:
	// the stage histogram counts all ten spans.
	var observed int64
	for _, ms := range reg.Snapshot() {
		if ms.Name == "dynaminer_stage_test_stage_seconds" {
			observed = ms.Count
		}
	}
	if observed != 10 {
		t.Fatalf("stage histogram holds %d observations of 10 spans", observed)
	}
}

// TestTraceAlertPromotion: MarkAlert always keeps the trace and flags its
// root span, regardless of sampling.
func TestTraceAlertPromotion(t *testing.T) {
	reg := NewRegistry()
	clock := newFakeTraceClock(t)
	tr := NewTracer(reg, 0)
	st := tr.Stage("test.stage")
	at := tr.Begin()
	id := at.ID()
	i := at.StartSpan(st)
	clock.advance(time.Millisecond)
	at.MarkAlert()
	at.EndSpan(i)
	tr.Finish(at)

	snap, ok := tr.Find(id)
	if !ok {
		t.Fatalf("alerting trace %d not resolvable via Find", id)
	}
	if !snap.Alert || snap.Sampled {
		t.Fatalf("alert trace promotion bits wrong: %+v", snap)
	}
	if len(snap.Spans) != 1 || !strings.Contains(snap.Spans[0].Flags, "alert") {
		t.Fatalf("root span not flagged alert: %+v", snap.Spans)
	}
	if got := reg.CounterValue("dynaminer_trace_alerts_total"); got != 1 {
		t.Fatalf("alert counter = %v, want 1", got)
	}
}

// TestTraceRingEviction: committing more traces than the ring holds
// evicts oldest-first, and evicted ids stop resolving.
func TestTraceRingEviction(t *testing.T) {
	const extra = 6
	clock := newFakeTraceClock(t)
	tr := NewTracer(nil, 1)
	st := tr.Stage("test.stage")
	for i := 0; i < traceRing+extra; i++ {
		at := tr.Begin()
		clock.spanOf(st, at, time.Millisecond)
		tr.Finish(at)
	}
	snaps := tr.Snapshots()
	if len(snaps) != traceRing {
		t.Fatalf("ring of %d holds %d traces", traceRing, len(snaps))
	}
	for i, snap := range snaps {
		if want := uint64(extra + 1 + i); snap.ID != want {
			t.Fatalf("ring slot %d holds trace %d, want %d: the newest %d, oldest first", i, snap.ID, want, traceRing)
		}
	}
	if _, ok := tr.Find(extra); ok {
		t.Fatalf("evicted trace %d still resolvable", extra)
	}
	if _, ok := tr.Find(traceRing + extra); !ok {
		t.Fatalf("newest trace %d not resolvable", traceRing+extra)
	}
}

// TestTraceSpanNesting checks the exported tree: parent links follow the
// open-span stack, child spans sit inside the root's interval, and spans
// abandoned by a panic-style unwind are closed by Finish.
func TestTraceSpanNesting(t *testing.T) {
	clock := newFakeTraceClock(t)
	tr := NewTracer(nil, 1)
	root := tr.Stage("test.root")
	inner := tr.Stage("test.inner")
	leaf := tr.Stage("test.leaf")

	at := tr.Begin()
	r := at.StartSpan(root)
	clock.advance(time.Millisecond)
	in := at.StartSpan(inner)
	clock.advance(time.Millisecond)
	lf := at.StartSpan(leaf)
	clock.advance(time.Millisecond)
	at.EndSpan(lf)
	at.EndSpan(in)
	clock.advance(time.Millisecond)
	abandoned := at.StartSpan(inner)
	_ = abandoned // never ended: Finish must close it
	clock.advance(2 * time.Millisecond)
	at.EndSpan(r)
	tr.Finish(at)

	snaps := tr.Snapshots()
	if len(snaps) != 1 || len(snaps[0].Spans) != 4 {
		t.Fatalf("want 1 trace with 4 spans, got %+v", snaps)
	}
	sp := snaps[0].Spans
	if sp[0].Parent != -1 || sp[1].Parent != 0 || sp[2].Parent != 1 || sp[3].Parent != 0 {
		t.Fatalf("parent links wrong: %+v", sp)
	}
	if sp[0].Stage != "test.root" || sp[1].Stage != "test.inner" || sp[2].Stage != "test.leaf" {
		t.Fatalf("stage names wrong: %+v", sp)
	}
	rootEnd := sp[0].Start + sp[0].Dur
	for i := 1; i < len(sp); i++ {
		if sp[i].Start < sp[0].Start || sp[i].Start+sp[i].Dur > rootEnd {
			t.Fatalf("span %d [%v,%v] escapes root [%v,%v]", i,
				sp[i].Start, sp[i].Start+sp[i].Dur, sp[0].Start, rootEnd)
		}
	}
	// The abandoned span (root's unwound child, closed by EndSpan(r)'s
	// stack pop) ends exactly where the root ends.
	if got := sp[3].Start + sp[3].Dur; got != rootEnd {
		t.Fatalf("abandoned span ends at %vus, root at %vus", got, rootEnd)
	}
}

// TestTraceSpanOverflow: spans past the fixed capacity are dropped,
// counted, and surfaced on the snapshot — never reallocated.
func TestTraceSpanOverflow(t *testing.T) {
	reg := NewRegistry()
	clock := newFakeTraceClock(t)
	tr := NewTracer(reg, 1)
	st := tr.Stage("test.stage")
	at := tr.Begin()
	for i := 0; i < maxTraceSpans+5; i++ {
		clock.spanOf(st, at, time.Microsecond)
	}
	tr.Finish(at)
	snaps := tr.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("want 1 trace, got %d", len(snaps))
	}
	if len(snaps[0].Spans) != maxTraceSpans || snaps[0].DroppedSpans != 5 {
		t.Fatalf("overflowed trace has %d spans, %d dropped; want %d and 5",
			len(snaps[0].Spans), snaps[0].DroppedSpans, maxTraceSpans)
	}
	if got := reg.CounterValue("dynaminer_trace_span_drops_total"); got != 5 {
		t.Fatalf("span drop counter = %v, want 5", got)
	}
}

// TestStageValidation: Stage interns idempotently, registers the folded
// histogram name, and panics on names ValidateSpanName rejects.
func TestStageValidation(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 0)
	a := tr.Stage("features.incremental")
	if b := tr.Stage("features.incremental"); b != a {
		t.Fatalf("re-interning returned %d, first intern %d", b, a)
	}
	tr.ObserveStage(a, 0.001)
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == "dynaminer_stage_features_incremental_seconds" {
			found = true
		}
	}
	if !found {
		t.Fatal("stage histogram dynaminer_stage_features_incremental_seconds not registered")
	}
	for _, bad := range []string{"", "nodot", "Has.Upper", "trailing.dot.", "double..dot", "9lead.seg", "has-dash.seg"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Stage(%q) did not panic", bad)
				}
			}()
			tr.Stage(bad)
		}()
	}
}

// TestWriteTraceEvents checks the Chrome trace-event export: a valid JSON
// object whose events carry microsecond timestamps on the trace's track.
func TestWriteTraceEvents(t *testing.T) {
	clock := newFakeTraceClock(t)
	tr := NewTracer(nil, 1)
	root := tr.Stage("test.root")
	child := tr.Stage("test.child")
	at := tr.Begin()
	r := at.StartSpan(root)
	c := at.StartSpan(child)
	clock.advance(3 * time.Millisecond)
	at.EndSpan(c)
	at.EndSpan(r)
	tr.Finish(at)

	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace-event export is not JSON: %v\n%s", err, buf.Bytes())
	}
	if file.DisplayTimeUnit != "ms" || len(file.TraceEvents) != 2 {
		t.Fatalf("export shape wrong: unit=%q events=%d", file.DisplayTimeUnit, len(file.TraceEvents))
	}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" || ev.TID != 1 {
			t.Fatalf("event not a complete event on track 1: %+v", ev)
		}
	}
	if file.TraceEvents[0].Name != "test.root" || file.TraceEvents[0].Dur != 3000 {
		t.Fatalf("root event wrong: %+v", file.TraceEvents[0])
	}
}

// TestTraceHandler exercises the /trace endpoint: trace-event JSON, id
// resolution, and the error statuses.
func TestTraceHandler(t *testing.T) {
	clock := newFakeTraceClock(t)
	tr := NewTracer(nil, 1)
	st := tr.Stage("test.stage")
	at := tr.Begin()
	id := at.ID()
	clock.spanOf(st, at, 2*time.Millisecond)
	tr.Finish(at)
	h := TraceHandler(tr)

	get := func(target string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		return w
	}

	w := get("/trace")
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if w.Code != 200 || json.Unmarshal(w.Body.Bytes(), &file) != nil || len(file.TraceEvents) != 1 {
		t.Fatalf("/trace default = %d %q", w.Code, w.Body.String())
	}

	w = get("/trace?id=" + itoa(id))
	var snap TraceSnapshot
	if w.Code != 200 || json.Unmarshal(w.Body.Bytes(), &snap) != nil || snap.ID != id {
		t.Fatalf("/trace?id=%d = %d %q", id, w.Code, w.Body.String())
	}

	if w = get("/trace?id=999999"); w.Code != 404 {
		t.Fatalf("/trace with unknown id = %d", w.Code)
	}
	if w = get("/trace?id=notanumber"); w.Code != 400 {
		t.Fatalf("/trace with junk id = %d", w.Code)
	}

	w = httptest.NewRecorder()
	TraceHandler(nil).ServeHTTP(w, httptest.NewRequest("GET", "/trace", nil))
	if w.Code != 404 {
		t.Fatalf("nil-tracer /trace = %d, want 404", w.Code)
	}
}

func itoa(v uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(buf[i:])
		}
	}
}

// TestValidateSpanName documents the accepted grammar directly.
func TestValidateSpanName(t *testing.T) {
	for _, ok := range []string{"a.b", "features.rebuild", "proxy.upstream", "a1.b_2.c"} {
		if err := ValidateSpanName(ok); err != nil {
			t.Errorf("ValidateSpanName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "single", "A.b", "a.", ".b", "a..b", "a.b-c", "1a.b", "a.b c"} {
		if err := ValidateSpanName(bad); err == nil {
			t.Errorf("ValidateSpanName(%q) accepted", bad)
		}
	}
}
