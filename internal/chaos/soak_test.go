package chaos

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/detector"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
	"dynaminer/internal/proxy"
	"dynaminer/internal/synth"
)

// soakStream renders a seeded synth corpus into one merged transaction
// stream with a distinct client per episode, so per-client alert streams
// are well-defined for the replay comparison.
func soakStream(t *testing.T) ([]httpstream.Transaction, int) {
	t.Helper()
	eps := synth.GenerateCorpus(synth.Config{Seed: 77, Infections: 30, Benign: 30})
	if len(eps) < 50 {
		t.Fatalf("corpus has %d episodes, the soak needs at least 50", len(eps))
	}
	var stream []httpstream.Transaction
	for i := range eps {
		addr := netip.AddrFrom4([4]byte{10, 20, byte(i / 200), byte(1 + i%200)})
		for j := range eps[i].Txs {
			eps[i].Txs[j].ClientIP = addr
		}
		stream = append(stream, eps[i].Txs...)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].ReqTime.Before(stream[j].ReqTime) })
	return stream, len(eps)
}

// TestChaosSoak is the acceptance soak: a seeded synth corpus streamed
// through the sharded engine and the proxy under injected faults. It
// asserts three properties — nothing crashes, the stats counters stay
// conserved, and a fault-free chaos replay is bit-identical to a plain
// baseline run.
func TestChaosSoak(t *testing.T) {
	stream, episodes := soakStream(t)
	cfg := detector.Config{RedirectThreshold: 1, Shards: 4}
	base := constScorer(0.9)

	// Baseline: a healthy engine over the pristine stream.
	baseline := detector.New(cfg, base)
	baseAlerts := baseline.ProcessAll(stream)
	if len(baseAlerts) == 0 {
		t.Fatal("baseline produced no alerts; the replay comparison covers nothing")
	}

	// Property 3: with every fault rate at zero, the chaos wrappers are
	// transparent and the replay is bit-identical.
	replay := detector.New(cfg, NewScorer(1, base, 0, 0))
	if got := replay.ProcessAll(stream); !reflect.DeepEqual(got, baseAlerts) {
		t.Fatalf("fault-free replay diverged: %d alerts vs %d baseline", len(got), len(baseAlerts))
	}

	// Faulty engine run: a damaged copy of the stream through an engine
	// whose scorer panics and returns NaNs, with the alert journal writing
	// through a failing, panicking sink.
	mut := NewMutator(2, 0.15)
	damaged := mut.Mutate(stream)
	scorer := NewScorer(3, base, 0.1, 0.1)
	flaky := NewFlakyWriter(5, nil, 0.2, 0.2)
	journal := obs.NewJournalWriter(flaky)
	faultyCfg := cfg
	faultyCfg.Journal = journal
	eng := detector.New(faultyCfg, scorer)
	faultyAlerts := 0
	for _, tx := range damaged {
		faultyAlerts += len(eng.Process(tx)) // property 1: must not crash
	}
	st := eng.Stats()
	if st.Transactions != len(damaged) {
		t.Fatalf("engine lost transactions: processed %d of %d", st.Transactions, len(damaged))
	}
	// Property 2 (engine): every injected scorer fault was recovered and
	// counted, one for one.
	if st.Panics != scorer.Faults() {
		t.Fatalf("panics = %d, scorer injected %d", st.Panics, scorer.Faults())
	}
	if scorer.Faults() == 0 || mut.Faults() == 0 {
		t.Fatalf("soak injected no engine faults (scorer=%d mutator=%d)", scorer.Faults(), mut.Faults())
	}
	// Property 2 (registry): the metrics registry agrees with the bridged
	// Stats view counter-for-counter, under faults.
	reg := eng.Registry()
	if n := reg.CounterValue("dynaminer_detector_transactions_total"); int(n) != len(damaged) {
		t.Fatalf("registry transactions = %d, want %d", n, len(damaged))
	}
	if n := reg.CounterValue("dynaminer_detector_panics_total"); int(n) != scorer.Faults() {
		t.Fatalf("registry panics = %d, scorer injected %d", n, scorer.Faults())
	}
	if n := reg.CounterValue("dynaminer_detector_alerts_total"); int(n) != faultyAlerts {
		t.Fatalf("registry alerts = %d, engine returned %d", n, faultyAlerts)
	}
	// Journal conservation: every alert attempted exactly one record, and
	// neither the write errors nor the write panics escaped Append.
	if got := journal.Writes() + journal.Drops(); got != int64(faultyAlerts) {
		t.Fatalf("journal writes+drops = %d, want one attempt per alert (%d)", got, faultyAlerts)
	}
	if int(journal.Writes()) != flaky.Writes() {
		t.Fatalf("journal counted %d writes, sink saw %d", journal.Writes(), flaky.Writes())
	}
	if journal.Drops() == 0 || journal.Writes() == 0 {
		t.Fatalf("journal fault injection vacuous: writes=%d drops=%d", journal.Writes(), journal.Drops())
	}

	// Proxy under a chaotic upstream: resets, hangs, truncations, garbage
	// headers, and latency spikes.
	rt := NewRoundTripper(4, 0.35)
	rt.Sleep = func(time.Duration) {}
	proxied := detector.New(cfg, base)
	p := proxy.New(proxy.Config{
		Transport: rt,
		Sleep:     func(time.Duration) {},
	}, proxied)
	requests := 0
	for _, tx := range stream[:300] {
		// A hung upstream costs each request its own 25 ms deadline.
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		r := httptest.NewRequest(http.MethodGet, tx.URL(), nil).WithContext(ctx)
		r.RemoteAddr = tx.ClientIP.String() + ":40000"
		p.ServeHTTP(httptest.NewRecorder(), r) // property 1: must not crash
		cancel()
		requests++
	}
	ps := p.Stats()
	sum := ps.Relayed + ps.Refused + ps.UpstreamErrors + ps.BreakerRejected + ps.BadRequests
	if ps.Requests != requests || sum != ps.Requests {
		t.Fatalf("proxy conservation violated: Requests=%d, sum of outcomes=%d (%+v)", ps.Requests, sum, ps)
	}
	if ps.Relayed == 0 || ps.UpstreamErrors == 0 {
		t.Fatalf("soak exercised only one proxy outcome: %+v", ps)
	}
	// Under chaos the proxy's /metrics exposition must still be
	// well-formed (cumulative buckets, +Inf == _count, parseable text).
	var exp strings.Builder
	if err := proxied.Registry().WritePrometheus(&exp); err != nil {
		t.Fatalf("WritePrometheus under chaos: %v", err)
	}
	if _, err := obs.ParseExposition(strings.NewReader(exp.String())); err != nil {
		t.Fatalf("chaos proxy exposition malformed: %v", err)
	}

	total := scorer.Faults() + mut.Faults() + rt.Faults()
	if total < 200 {
		t.Fatalf("soak injected %d faults across %d episodes, want at least 200", total, episodes)
	}
	t.Logf("soak: %d episodes, %d faults (scorer=%d mutator=%d transport=%d), engine stats %+v, proxy stats %+v",
		episodes, total, scorer.Faults(), mut.Faults(), rt.Faults(), st, ps)
}
