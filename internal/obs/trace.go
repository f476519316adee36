package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the pipeline tracing layer: a Tracer records one span tree
// per transaction across the wire path (pcap reassembly → httpstream
// parse → feature extraction → forest scoring → alert/journal write) into
// a fixed-size ring of pre-allocated slots. Recording is zero-alloc on
// the hot path — ActiveTrace comes from a pool, spans live in a fixed
// array, stage names are interned to StageIDs at setup time. Every
// closed span observes its stage histogram. A tree is kept in the ring
// for one of two reasons: head-based sampling picked its transaction
// (every Nth), or the transaction raised an alert. Kept trees export as
// Chrome trace-event JSON (chrome://tracing / Perfetto) and resolve by the
// trace_id stamped onto journaled AlertRecords.

// maxTraceSpans bounds one transaction's span tree; together with the
// ring size it fixes the tracer's memory footprint
// (traceRing × sizeof(traceRecord) ≈ 256 × 1.2 KiB).
const maxTraceSpans = 24

// traceStackDepth bounds span nesting (open, not-yet-ended spans).
const traceStackDepth = 8

// traceRing is the number of kept span trees the ring holds; the oldest
// is evicted first.
const traceRing = 256

// monoSince is the monotonic elapsed-time clock, as a function value so
// tests can replace it, and the wire path's one timer: every span stamp
// and stage observation is an offset from the tracer's base read through
// it (Tracer.Mark). One monotonic read costs roughly half a full time.Now
// (no wall-clock component).
var monoSince = time.Since

// SetClock makes now the package clock and returns what restores the one
// it replaced: a tracer built afterwards takes its base from now, and
// every Mark — each span stamp and stage observation — is one call to it.
// It exists so tests in any package can step or forbid the wire path's
// one timer (t.Cleanup(obs.SetClock(now))); it is not synchronised, so it
// must not race a tracer in use, and tests that call it must not run in
// parallel.
func SetClock(now func() time.Time) (restore func()) {
	clock, since := defaultClock, monoSince
	defaultClock = now
	monoSince = func(base time.Time) time.Duration { return now().Sub(base) }
	return func() { defaultClock, monoSince = clock, since }
}

// ValidateSpanName reports why a span (stage) name is unacceptable, or
// nil: names must be lowercase dotted "stage.substage" — two or more
// dot-separated snake_case segments ([a-z][a-z0-9_]*).
func ValidateSpanName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty span name")
	}
	segs := strings.Split(name, ".")
	if len(segs) < 2 {
		return fmt.Errorf("obs: span name %q must be dotted stage.substage", name)
	}
	for _, seg := range segs {
		if seg == "" {
			return fmt.Errorf("obs: span name %q has an empty segment", name)
		}
		for i := 0; i < len(seg); i++ {
			c := seg[i]
			switch {
			case c >= 'a' && c <= 'z':
			case c == '_' && i > 0:
			case c >= '0' && c <= '9' && i > 0:
			default:
				return fmt.Errorf("obs: span name %q is not lowercase dotted stage.substage", name)
			}
		}
	}
	return nil
}

// StageID is an interned span name, resolved once via Tracer.Stage at
// setup time so the hot path never touches strings.
type StageID int32

// SpanFlags annotate a span with the serving conditions active when it
// ran — quarantine attribution, whether a classify appended or
// reseeded, proxy retry/breaker outcomes.
type SpanFlags uint16

const (
	// SpanAlert marks the span tree of an alert-raising transaction.
	SpanAlert SpanFlags = 1 << iota
	// SpanIncremental marks a classify that appended the watch's new
	// records to the live WCG.
	SpanIncremental
	// SpanReseed marks a classify that reseeded the live WCG from the
	// whole watch (an out-of-order record, or DisableIncremental).
	SpanReseed
	// SpanQuarantined marks work on a cluster with a quarantine strike.
	SpanQuarantined
	// SpanRetried marks an upstream attempt that was retried.
	SpanRetried
	// SpanBreakerOpen marks a request rejected by an open circuit breaker.
	SpanBreakerOpen
	// SpanError marks a span that ended by panic or transport error.
	SpanError
	// SpanTopology marks a feature span that refreshed the topology
	// slots (the WCG's undirected structure changed: O(n) for a new leaf
	// host, the full sweep otherwise) — the slow modes of the otherwise
	// sub-microsecond incremental classify.
	SpanTopology
)

// String renders the set flags as a comma-joined list (export path only).
func (f SpanFlags) String() string {
	if f == 0 {
		return ""
	}
	names := [...]struct {
		bit  SpanFlags
		name string
	}{
		{SpanAlert, "alert"}, {SpanIncremental, "incremental"},
		{SpanReseed, "reseed"}, {SpanQuarantined, "quarantined"},
		{SpanRetried, "retried"}, {SpanBreakerOpen, "breaker_open"},
		{SpanError, "error"}, {SpanTopology, "topology"},
	}
	parts := make([]string, 0, 4)
	for _, n := range names {
		if f&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, ",")
}

// Span is one stage of a transaction's trace and its timing. Start is the
// offset from the trace's begin instant; Dur is negative while the span
// is open.
type Span struct {
	Stage  StageID
	Parent int16 // index of the enclosing span, -1 for the root
	Flags  SpanFlags
	Arg    int32 // stage-specific attribution: shard index, retry attempt
	Start  time.Duration
	Dur    time.Duration
}

// stageInfo is one interned stage: its name and its registry histogram.
type stageInfo struct {
	name string
	hist *Histogram
}

// traceRecord is one committed span tree, fixed-size so ring slots never
// allocate.
type traceRecord struct {
	id      uint64
	start   time.Time
	n       int
	dropped int32
	sampled bool
	alert   bool
	spans   [maxTraceSpans]Span
}

// traceSlot is one ring position; the per-slot mutex is taken only on
// commit (kept traces: sampled or alerting) and on export reads —
// never on the sampled-out hot path.
type traceSlot struct {
	mu   sync.Mutex
	used bool
	rec  traceRecord
}

// Tracer records per-transaction span trees. One tracer is shared by
// every pipeline component of a serving instance (engine shards, proxy,
// parsers); Stage interning and ring commits are locked, span recording
// is not.
type Tracer struct {
	reg    *Registry
	sample uint64
	// base is the instant the tracer was built; every span stamp is a
	// monotonic offset from it (one cheap monotonic read per boundary),
	// and wall-clock trace starts are reconstructed as base+offset only
	// when a trace is actually committed.
	base time.Time

	// txs counts every Begin; it is both the sampling phase and the
	// trace-id source, so ids are unique and dense per tracer.
	txs atomic.Uint64

	mu     sync.Mutex
	byName map[string]StageID           // guarded by mu
	stages atomic.Pointer[[]*stageInfo] // copy-on-write; hot path loads

	ring []traceSlot
	head atomic.Uint64

	pool sync.Pool // *ActiveTrace

	recorded  *Counter
	sampled   *Counter
	alertKept *Counter
	spanDrops *Counter
}

// NewTracer builds a tracer that keeps every sample-th transaction's
// span tree (1 keeps every tree, 0 keeps none by sampling) plus every
// alert-raising transaction's. Its per-stage histograms register on reg
// (dynaminer_stage_<stage>_seconds families) and observe every closed
// span and stage unit, kept or not; a nil reg gets a private
// registry, which keeps the tracer functional but unexported.
func NewTracer(reg *Registry, sample int) *Tracer {
	if reg == nil {
		reg = NewRegistry()
	}
	t := &Tracer{
		reg:       reg,
		sample:    uint64(max(sample, 0)),
		base:      defaultClock(),
		byName:    make(map[string]StageID),
		ring:      make([]traceSlot, traceRing),
		recorded:  reg.Counter("dynaminer_trace_recorded_total", "span trees committed to the trace ring (sampled or alerting)"),
		sampled:   reg.Counter("dynaminer_trace_sampled_total", "span trees kept by head-based every-Nth sampling"),
		alertKept: reg.Counter("dynaminer_trace_alerts_total", "span trees kept because the transaction raised an alert"),
		spanDrops: reg.Counter("dynaminer_trace_span_drops_total", "spans dropped because a trace exceeded its fixed span capacity"),
	}
	empty := make([]*stageInfo, 0, 16)
	t.stages.Store(&empty)
	t.pool.New = func() any { return new(ActiveTrace) }
	return t
}

// Stage interns a span name, registering its latency histogram
// (dynaminer_stage_<name>_seconds with dots folded to underscores) on
// the tracer's registry. Get-or-create and setup-time only; the name
// must be lowercase dotted stage.substage or Stage panics.
func (t *Tracer) Stage(name string) StageID {
	if err := ValidateSpanName(name); err != nil {
		panic(err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byName[name]; ok {
		return id
	}
	metric := "dynaminer_stage_" + strings.ReplaceAll(name, ".", "_") + "_seconds"
	si := &stageInfo{
		name: name,
		hist: t.reg.Histogram(metric, "latency of the "+name+" pipeline stage", LatencyBuckets),
	}
	cur := *t.stages.Load()
	next := make([]*stageInfo, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = si
	t.stages.Store(&next)
	id := StageID(len(cur))
	t.byName[name] = id
	return id
}

// Mark reads the tracer's clock: the monotonic offset of now from the
// tracer's base. It is the one clock read of the wire path — spans take
// theirs through it, and a pipeline component that times a stage unit
// outside any span tree (a TCP conversation reassembled or parsed) brackets
// the unit with two Marks and hands the difference to ObserveStage. A nil
// tracer reads nothing and returns 0, so an untraced path never touches
// the clock.
func (t *Tracer) Mark() time.Duration {
	if t == nil {
		return 0
	}
	return monoSince(t.base)
}

// ObserveStage records one unit of a stage outside any span tree, as
// two Marks bracketed it.
func (t *Tracer) ObserveStage(id StageID, seconds float64) {
	if t == nil {
		return
	}
	t.observe(id, seconds)
}

// observe adds one unit of stage id to its histogram.
func (t *Tracer) observe(id StageID, seconds float64) {
	stages := *t.stages.Load()
	if int(id) < 0 || int(id) >= len(stages) {
		return
	}
	stages[id].hist.Observe(seconds)
}

// ActiveTrace is one transaction's in-progress span tree. It is owned by
// exactly one goroutine between Begin and Finish; all methods are
// nil-receiver safe so untraced configurations pay only a nil check.
type ActiveTrace struct {
	t  *Tracer
	id uint64
	// startMono is the trace's begin instant as a monotonic offset from
	// the tracer's base; the wall-clock start (base+startMono) is only
	// materialized when the trace commits.
	startMono time.Duration
	sampled   bool
	alert     bool
	dropped   int32
	n         int
	openN     int
	open      [traceStackDepth]int16
	spans     [maxTraceSpans]Span
}

// rel reads the clock once and returns the offset from the trace start
// (clamped non-negative for misaligned injected clocks).
func (a *ActiveTrace) rel() time.Duration {
	d := a.t.Mark() - a.startMono
	if d < 0 {
		return 0
	}
	return d
}

// Begin starts a transaction trace: bumps the transaction counter,
// decides head-based sampling, and hands out a pooled recorder. The
// sampled-out path allocates nothing (pinned by TestTraceHotPathAllocs).
func (t *Tracer) Begin() *ActiveTrace {
	if t == nil {
		return nil
	}
	return t.BeginIn(t.pool.Get().(*ActiveTrace))
}

// BeginIn is Begin recording into caller-owned storage — a recorder the
// caller embeds (one per engine shard) and reuses across transactions,
// skipping the pool round-trip. A trace begun this way must be finished
// with FinishIn, never Finish: the recorder does not belong to the pool.
func (t *Tracer) BeginIn(at *ActiveTrace) *ActiveTrace {
	if t == nil || at == nil {
		return nil
	}
	n := t.txs.Add(1)
	at.t = t
	at.id = n
	at.startMono = t.Mark()
	at.sampled = t.sample > 0 && n%t.sample == 0
	at.alert = false
	at.dropped = 0
	at.n = 0
	at.openN = 0
	return at
}

// Finish closes any spans a panic unwound past, commits the tree to the
// ring when it is kept (sampled or alerting), and returns the recorder to
// the pool. The ActiveTrace must not be used afterwards.
func (t *Tracer) Finish(at *ActiveTrace) {
	if t == nil || at == nil {
		return
	}
	t.FinishIn(at)
	t.pool.Put(at)
}

// FinishIn is Finish for a trace begun with BeginIn: the caller keeps
// owning the recorder (commit copies the kept tree into the ring), so
// nothing is returned to the pool.
func (t *Tracer) FinishIn(at *ActiveTrace) {
	if t == nil || at == nil {
		return
	}
	if at.openN > 0 {
		end := at.rel()
		for at.openN > 0 {
			at.openN--
			at.closeSpan(int(at.open[at.openN]), end)
		}
	}
	if at.sampled || at.alert {
		t.commit(at)
	}
}

// commit copies the finished tree into the next ring slot.
func (t *Tracer) commit(at *ActiveTrace) {
	slot := &t.ring[(t.head.Add(1)-1)%uint64(len(t.ring))]
	slot.mu.Lock()
	slot.used = true
	r := &slot.rec
	r.id, r.start = at.id, t.base.Add(at.startMono)
	r.n, r.dropped = at.n, at.dropped
	r.sampled, r.alert = at.sampled, at.alert
	r.spans = at.spans
	slot.mu.Unlock()
	t.recorded.Inc()
	if at.sampled {
		t.sampled.Inc()
	}
	if at.alert {
		t.alertKept.Inc()
	}
	if at.dropped > 0 {
		t.spanDrops.Add(int64(at.dropped))
	}
}

// ID returns the trace id (0 for a nil trace) — the value stamped onto
// AlertRecord.TraceID.
func (a *ActiveTrace) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.id
}

// Mark reads the clock once, as the offset StartSpanAt and EndSpanAt
// take: boundaries that coincide (one stage ends as the next begins, or a
// span opens with its first child) share one read. It reads nothing on a
// nil trace.
func (a *ActiveTrace) Mark() time.Duration {
	if a == nil {
		return 0
	}
	return a.rel()
}

// StartSpan opens a span for the stage, nested under the innermost open
// span, and returns its index (-1 when untraced or out of capacity). The
// first span of a trace starts at offset zero without a clock read: the
// root span begins when the trace does.
func (a *ActiveTrace) StartSpan(stage StageID) int {
	if a == nil {
		return -1
	}
	var start time.Duration
	if a.n > 0 && a.n < maxTraceSpans && a.openN < traceStackDepth {
		start = a.rel()
	}
	return a.StartSpanAt(stage, start)
}

// StartSpanAt is StartSpan at offset start, a Mark.
func (a *ActiveTrace) StartSpanAt(stage StageID, start time.Duration) int {
	if a == nil {
		return -1
	}
	if a.n >= maxTraceSpans || a.openN >= traceStackDepth {
		a.dropped++
		return -1
	}
	parent := int16(-1)
	if a.openN > 0 {
		parent = a.open[a.openN-1]
	}
	idx := a.n
	a.spans[idx] = Span{
		Stage:  stage,
		Parent: parent,
		Start:  start,
		Dur:    -1,
	}
	a.open[a.openN] = int16(idx)
	a.openN++
	a.n++
	return idx
}

// EndSpan closes the span at idx, observing its stage histogram;
// children left open (a panic unwound past their EndSpan) close at the
// same instant. Closing an already-closed or invalid index is a no-op.
func (a *ActiveTrace) EndSpan(idx int) {
	if a == nil || idx < 0 || idx >= a.n {
		return
	}
	a.EndSpanAt(idx, a.rel())
}

// EndSpanAt is EndSpan at offset end, a Mark.
func (a *ActiveTrace) EndSpanAt(idx int, end time.Duration) {
	if a == nil || idx < 0 || idx >= a.n {
		return
	}
	for a.openN > 0 {
		top := int(a.open[a.openN-1])
		a.openN--
		a.closeSpan(top, end)
		if top == idx {
			return
		}
	}
	a.closeSpan(idx, end)
}

// closeSpan finalizes one open span at the given end offset and observes
// its stage histogram. Every closed span counts, kept or not: sampling
// picks the trees the ring keeps, never the observations, so a stage
// histogram's count is the units its stage saw.
func (a *ActiveTrace) closeSpan(idx int, end time.Duration) {
	sp := &a.spans[idx]
	if sp.Dur >= 0 {
		return
	}
	d := end - sp.Start
	if d < 0 {
		d = 0
	}
	sp.Dur = d
	a.t.observe(sp.Stage, d.Seconds())
}

// Annotate ORs flags onto the span at idx.
func (a *ActiveTrace) Annotate(idx int, flags SpanFlags) {
	if a == nil || idx < 0 || idx >= a.n {
		return
	}
	a.spans[idx].Flags |= flags
}

// SetArg sets the span's stage-specific attribution value (shard index,
// retry attempt).
func (a *ActiveTrace) SetArg(idx int, arg int32) {
	if a == nil || idx < 0 || idx >= a.n {
		return
	}
	a.spans[idx].Arg = arg
}

// MarkAlert keeps this trace whatever the sampling (an alert-raising
// transaction) and flags its root span.
func (a *ActiveTrace) MarkAlert() {
	if a == nil {
		return
	}
	a.alert = true
	if a.n > 0 {
		a.spans[0].Flags |= SpanAlert
	}
}

// TraceSpan is one exported span, stage resolved back to its name.
type TraceSpan struct {
	Stage  string  `json:"stage"`
	Parent int     `json:"parent"` // index into Spans, -1 for the root
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
	Flags  string  `json:"flags,omitempty"`
	Arg    int32   `json:"arg,omitempty"`
}

// TraceSnapshot is one exported span tree.
type TraceSnapshot struct {
	ID           uint64      `json:"trace_id"`
	Start        time.Time   `json:"start"`
	Sampled      bool        `json:"sampled,omitempty"`
	Alert        bool        `json:"alert,omitempty"`
	DroppedSpans int         `json:"dropped_spans,omitempty"`
	Spans        []TraceSpan `json:"spans"`
}

// snapshotRecord converts a committed record to its export form.
func snapshotRecord(r *traceRecord, stages []*stageInfo) TraceSnapshot {
	out := TraceSnapshot{
		ID:           r.id,
		Start:        r.start,
		Sampled:      r.sampled,
		Alert:        r.alert,
		DroppedSpans: int(r.dropped),
		Spans:        make([]TraceSpan, 0, r.n),
	}
	for i := 0; i < r.n; i++ {
		sp := &r.spans[i]
		name := ""
		if int(sp.Stage) >= 0 && int(sp.Stage) < len(stages) {
			name = stages[sp.Stage].name
		}
		dur := sp.Dur
		if dur < 0 {
			dur = 0
		}
		out.Spans = append(out.Spans, TraceSpan{
			Stage:  name,
			Parent: int(sp.Parent),
			Start:  float64(sp.Start.Nanoseconds()) / 1e3,
			Dur:    float64(dur.Nanoseconds()) / 1e3,
			Flags:  sp.Flags.String(),
			Arg:    sp.Arg,
		})
	}
	return out
}

// Snapshots returns every kept span tree in the ring, oldest first.
func (t *Tracer) Snapshots() []TraceSnapshot {
	if t == nil {
		return nil
	}
	stages := *t.stages.Load()
	out := make([]TraceSnapshot, 0, len(t.ring))
	for i := range t.ring {
		slot := &t.ring[i]
		slot.mu.Lock()
		if !slot.used {
			slot.mu.Unlock()
			continue
		}
		rec := slot.rec
		slot.mu.Unlock()
		out = append(out, snapshotRecord(&rec, stages))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find resolves a trace id (an AlertRecord.TraceID) to its span tree, if
// it is still in the ring.
func (t *Tracer) Find(id uint64) (TraceSnapshot, bool) {
	if t == nil || id == 0 {
		return TraceSnapshot{}, false
	}
	stages := *t.stages.Load()
	for i := range t.ring {
		slot := &t.ring[i]
		slot.mu.Lock()
		if slot.used && slot.rec.id == id {
			rec := slot.rec
			slot.mu.Unlock()
			return snapshotRecord(&rec, stages), true
		}
		slot.mu.Unlock()
	}
	return TraceSnapshot{}, false
}

// traceEvent is one Chrome trace-event ("X" complete event, microsecond
// timestamps); chrome://tracing and Perfetto load the enclosing file
// directly.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceEventFile is the Chrome trace-event JSON object form.
type traceEventFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceEvents renders every kept span tree as Chrome trace-event
// JSON: each transaction becomes one track (tid = trace id), each span a
// complete event carrying its flags and attribution in args.
func (t *Tracer) WriteTraceEvents(w io.Writer) error {
	file := traceEventFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	for _, tr := range t.Snapshots() {
		base := float64(tr.Start.UnixNano()) / 1e3
		for _, sp := range tr.Spans {
			ev := traceEvent{
				Name: sp.Stage,
				Cat:  "dynaminer",
				Ph:   "X",
				TS:   base + sp.Start,
				Dur:  sp.Dur,
				PID:  1,
				TID:  tr.ID,
				Args: map[string]any{"trace_id": tr.ID, "parent": sp.Parent},
			}
			if sp.Flags != "" {
				ev.Args["flags"] = sp.Flags
			}
			if sp.Arg != 0 {
				ev.Args["arg"] = sp.Arg
			}
			file.TraceEvents = append(file.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// TraceHandler serves a tracer over HTTP: the ring as Chrome trace-event
// JSON, or with ?id=N the one span tree an AlertRecord.TraceID names.
// Mounted as the /trace admin endpoint.
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		if idStr := r.URL.Query().Get("id"); idStr != "" {
			id, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			snap, ok := t.Find(id)
			if !ok {
				http.Error(w, "trace not found (evicted from ring or never kept)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(snap)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteTraceEvents(w)
	})
}
