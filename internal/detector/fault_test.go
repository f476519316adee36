package detector

import (
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/ml"
	"dynaminer/internal/obs"
	"dynaminer/internal/synth"
)

// panicScorer fails hard on every classification.
type panicScorer struct{}

func (panicScorer) Score([]float64) float64 { panic("poisoned scorer") }

// nanScorer returns a non-finite probability on every classification.
type nanScorer struct{}

func (nanScorer) Score([]float64) float64 { return math.NaN() }

// gatedPanicScorer panics only while armed; the test arms it per
// transaction, which is well-defined because a one-shard engine is serialized.
type gatedPanicScorer struct {
	base  Scorer
	armed bool
}

func (g *gatedPanicScorer) Score(x []float64) float64 {
	if g.armed {
		panic("poisoned client")
	}
	return g.base.Score(x)
}

// relatedFollowUp extends the infection stream with post-clue traffic to
// the watched chain: n non-download updates and one final download.
func relatedFollowUp(n int) []httpstream.Transaction {
	txs := infectionStream()
	at := 600 * time.Millisecond
	for i := 0; i < n; i++ {
		txs = append(txs, mkTx("d.evil", "/beacon", "GET", 200, "text/html", 512, "", at))
		at += 100 * time.Millisecond
	}
	txs = append(txs, mkTx("d.evil", "/second.exe", "GET", 200, "application/x-msdownload", 70000, "", at))
	return txs
}

// TestPanicQuarantineLadder walks one cluster down the full ladder: the
// first scorer panic quarantines it (incremental cache dropped, engine
// survives), the second evicts it outright.
func TestPanicQuarantineLadder(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, panicScorer{})
	txs := relatedFollowUp(0) // clue download, then a second download

	for _, tx := range txs[:5] {
		if got := e.Process(tx); got != nil {
			t.Fatalf("poisoned classify returned alerts: %v", got)
		}
	}
	st := e.Stats()
	if st.Panics != 1 || st.Quarantined != 1 {
		t.Fatalf("after first fault: stats %+v, want Panics=1 Quarantined=1", st)
	}
	state := e.shards[0].st
	if len(state.clusters) != 1 {
		t.Fatalf("quarantined cluster evicted too early (clusters=%d)", len(state.clusters))
	}
	if state.clusters[0].ib != nil || state.clusters[0].cache != nil {
		t.Fatal("quarantine must drop the incremental cache")
	}

	// The second classification rebuilds from scratch, faults again, and
	// the cluster is evicted.
	if got := e.Process(txs[5]); got != nil {
		t.Fatalf("second poisoned classify returned alerts: %v", got)
	}
	st = e.Stats()
	if st.Panics != 2 || st.Quarantined != 1 || st.Evicted != 1 {
		t.Fatalf("after second fault: stats %+v, want Panics=2 Quarantined=1 Evicted=1", st)
	}
	if len(state.clusters) != 0 {
		t.Fatalf("cluster survived the second fault (clusters=%d)", len(state.clusters))
	}
	if len(state.byClient) != 0 {
		t.Fatal("byClient index still references the evicted cluster")
	}

	// The engine keeps serving after the eviction.
	if e.Process(mkTx("fresh.com", "/", "GET", 200, "text/html", 100, "", time.Hour)); e.Stats().Transactions != 7 {
		t.Fatalf("engine stopped counting after eviction: %+v", e.Stats())
	}
}

// TestNonFiniteScoreQuarantines pins that a NaN probability rides the
// same ladder as a panic instead of corrupting threshold comparisons.
func TestNonFiniteScoreQuarantines(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, nanScorer{})
	for _, tx := range relatedFollowUp(0) {
		if got := e.Process(tx); got != nil {
			t.Fatalf("NaN score produced alerts: %v", got)
		}
	}
	st := e.Stats()
	if st.Panics != 2 || st.Quarantined != 1 || st.Evicted != 1 || st.Alerts != 0 {
		t.Fatalf("stats %+v, want the full ladder (Panics=2 Quarantined=1 Evicted=1) and zero alerts", st)
	}
}

// TestPoisonedClientDoesNotAffectOthers is the acceptance differential: a
// scorer that panics for exactly one client must degrade only that client
// — quarantine, rebuild, evict — while every other client's alert stream
// stays bit-identical to a fault-free engine's.
func TestPoisonedClientDoesNotAffectOthers(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 97, Infections: 10, Benign: 8})
	// One distinct client per episode so per-client alert streams are
	// well-defined.
	var stream []httpstream.Transaction
	for i := range episodes {
		addr := netip.AddrFrom4([4]byte{10, 9, byte(i / 200), byte(1 + i%200)})
		for j := range episodes[i].Txs {
			episodes[i].Txs[j].ClientIP = addr
		}
		stream = append(stream, episodes[i].Txs...)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].ReqTime.Before(stream[j].ReqTime) })

	cfg := Config{RedirectThreshold: 1}

	// Baseline: a healthy engine over the full interleaved stream.
	base := New(cfg, vecScorer{})
	var baseAlerts []Alert
	for _, tx := range stream {
		baseAlerts = append(baseAlerts, base.Process(tx)...)
	}
	if len(baseAlerts) == 0 {
		t.Fatal("baseline produced no alerts; the differential covers nothing")
	}
	poisoned := baseAlerts[0].Client

	// Faulty run: the scorer panics whenever the poisoned client's
	// transactions are being classified.
	gate := &gatedPanicScorer{base: vecScorer{}}
	faulty := New(cfg, gate)
	var faultyAlerts []Alert
	for _, tx := range stream {
		gate.armed = tx.ClientIP == poisoned
		faultyAlerts = append(faultyAlerts, faulty.Process(tx)...)
	}

	keepOthers := func(in []Alert) []Alert {
		var out []Alert
		for _, a := range in {
			if a.Client != poisoned {
				out = append(out, a)
			}
		}
		return out
	}
	wantOthers, gotOthers := keepOthers(baseAlerts), keepOthers(faultyAlerts)
	if len(wantOthers) == 0 {
		t.Fatal("no non-poisoned alerts to compare")
	}
	requireSameAlerts(t, "non-poisoned clients", gotOthers, wantOthers)

	for _, a := range faultyAlerts {
		if a.Client == poisoned {
			t.Fatalf("poisoned client still alerted: %+v", a)
		}
	}
	st := faulty.Stats()
	if st.Panics == 0 || st.Quarantined == 0 {
		t.Fatalf("poisoned client never walked the ladder: %+v", st)
	}
}

// TestShardProcessRecovers pins the shard-level last-resort guard: a
// panic that escapes shardState.process (here: a corrupted client index,
// so the fault fires before cluster attribution) is swallowed at the
// shard boundary and counted, instead of unwinding into the caller — and
// the faulting transaction's trace is closed and committed, not leaked
// into the next transaction's.
func TestShardProcessRecovers(t *testing.T) {
	tracer := obs.NewTracer(nil, 1)
	s := New(Config{Shards: 1, Tracer: tracer}, constScorer(0))
	state := s.shards[0].st
	roots := func(snap obs.TraceSnapshot) (spans []obs.TraceSpan) {
		for _, sp := range snap.Spans {
			if sp.Stage == "detector.process" && sp.Parent == -1 {
				spans = append(spans, sp)
			}
		}
		return spans
	}

	state.byClient = nil // poison: clusterFor writes into a nil map
	if got := s.Process(mkTx("x.com", "/", "GET", 200, "text/html", 10, "", 0)); got != nil {
		t.Fatalf("poisoned shard returned alerts: %v", got)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("stats %+v, want Panics=1", st)
	}
	if state.at != nil || state.atRoot != -1 {
		t.Fatal("recovered shard still points at the faulting transaction's trace")
	}
	snaps := tracer.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("ring holds %d trees after the faulting transaction, want 1", len(snaps))
	}
	if r := roots(snaps[0]); len(r) != 1 || !strings.Contains(r[0].Flags, "error") {
		t.Fatalf("faulting tree = %+v, want one detector.process root flagged error", snaps[0].Spans)
	}

	// The shard keeps serving, and the next tree is its own.
	state.byClient = map[netip.Addr][]*cluster{}
	s.Process(mkTx("x.com", "/", "GET", 200, "text/html", 10, "", time.Second))
	if st := s.Stats(); st.Transactions != 2 {
		t.Fatalf("shard stopped serving: %+v", st)
	}
	snaps = tracer.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("ring holds %d trees, want 2", len(snaps))
	}
	if r := roots(snaps[1]); len(r) != 1 || len(snaps[1].Spans) != 1 || r[0].Flags != "" {
		t.Fatalf("tree after the fault = %+v, want exactly one clean detector.process root", snaps[1].Spans)
	}

	// Under a caller-supplied trace (the proxy's) the root span is closed
	// on the recover path too: the caller's next span is a sibling, not a
	// child of a span left open.
	at := tracer.Begin()
	state.byClient = nil
	s.ProcessTraced(mkTx("x.com", "/", "GET", 200, "text/html", 10, "", 2*time.Second), at)
	state.byClient = map[netip.Addr][]*cluster{}
	s.ProcessTraced(mkTx("x.com", "/", "GET", 200, "text/html", 10, "", 3*time.Second), at)
	id := at.ID()
	tracer.Finish(at)
	snap, ok := tracer.Find(id)
	if !ok {
		t.Fatal("caller-supplied trace not in the ring")
	}
	if r := roots(snap); len(r) != 2 || !strings.Contains(r[0].Flags, "error") || r[1].Flags != "" {
		t.Fatalf("caller-supplied tree = %+v, want two depth-0 detector.process spans, the first flagged error", snap.Spans)
	}
}

// trainNarrowForest trains a real ERF on deliberately 5-dimensional
// vectors — a stand-in for a model file from an older feature schema.
func trainNarrowForest(tb testing.TB) *ml.FlatForest {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	ds := &ml.Dataset{}
	for i := 0; i < 60; i++ {
		x := make([]float64, 5)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := ml.LabelBenign
		if i%2 == 0 {
			x[0] += 3
			y = ml.LabelInfection
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, y)
	}
	f, err := ml.TrainForest(ds, ml.ForestConfig{NumTrees: 3, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// TestMisdimensionedModelQuarantines is the engine-side regression test
// for the forest dimension guard: a model trained on a different feature
// schema (5 features) cannot score the engine's 37-feature vectors. The
// guard turns what used to be an index-out-of-range crash deep inside
// tree traversal into a named panic that the engine's fault isolation
// attributes like any other scorer fault: first classification
// quarantines the cluster, the rebuild's repeat fault evicts it, and the
// engine keeps serving other clients throughout.
func TestMisdimensionedModelQuarantines(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, trainNarrowForest(t))
	txs := relatedFollowUp(0)

	for _, tx := range txs[:5] {
		if got := e.Process(tx); got != nil {
			t.Fatalf("mis-dimensioned classify returned alerts: %v", got)
		}
	}
	st := e.Stats()
	if st.Panics != 1 || st.Quarantined != 1 {
		t.Fatalf("after clue classify: stats %+v, want Panics=1 Quarantined=1", st)
	}

	if got := e.Process(txs[5]); got != nil {
		t.Fatalf("rebuild classify returned alerts: %v", got)
	}
	st = e.Stats()
	if st.Panics != 2 || st.Evicted != 1 {
		t.Fatalf("after rebuild classify: stats %+v, want Panics=2 Evicted=1", st)
	}

	// The guard's panic is named and self-describing so the fault is
	// attributable from a stack trace (not just an index-out-of-range).
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "ml: ") || !strings.Contains(msg, "features") {
			t.Fatalf("guard panic = %v, want a named ml dimension message", r)
		}
	}()
	e.models.current().scorer.Score(make([]float64, 37))
}
