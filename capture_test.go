package dynaminer

import (
	"bytes"
	"net/netip"
	"sync"
	"testing"

	"dynaminer/internal/obs"
	"dynaminer/internal/pcap"
)

// renderedCapture is a classic pcap with what its frames hold.
type renderedCapture struct {
	bytes   []byte
	convs   int   // TCP conversations
	payload int64 // TCP payload bytes of every frame
}

// renderCapture renders eps as one capture, each episode from its own
// client address 10.net.x.y so sessions never merge.
func renderCapture(t *testing.T, eps []Episode, net byte) renderedCapture {
	t.Helper()
	var convs []pcap.Conversation
	for i := range eps {
		ep := eps[i]
		ep.Txs = append([]Transaction(nil), ep.Txs...) // the fixture is shared
		addr := netip.AddrFrom4([4]byte{10, net, byte(i / 200), byte(1 + i%200)})
		for j := range ep.Txs {
			ep.Txs[j].ClientIP = addr
		}
		convs = append(convs, ep.Conversations()...)
	}
	var buf bytes.Buffer
	if err := pcap.WriteConversations(&buf, convs); err != nil {
		t.Fatal(err)
	}
	c := renderedCapture{bytes: buf.Bytes(), convs: len(convs)}
	if err := pcap.Scan(bytes.NewReader(c.bytes), func(p pcap.Packet) {
		var f pcap.Frame
		if err := pcap.DecodeFrameInto(&f, p.Data); err != nil {
			t.Fatal(err)
		}
		c.payload += int64(len(f.Payload))
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCaptureTelemetryIsPerMonitor: two monitors in one process, each on
// its own registry, replay two different captures at once. Each registry
// counts its own capture's transactions and TCP payload bytes and nothing
// of the other's.
func TestCaptureTelemetryIsPerMonitor(t *testing.T) {
	eps, clf := obsFixture(t)
	third := len(eps) / 3
	captures := []renderedCapture{renderCapture(t, eps[:third], 50), renderCapture(t, eps[third:], 51)}
	monitors := make([]*Monitor, len(captures))
	errs := make([]error, len(captures))
	var wg sync.WaitGroup
	for i := range captures {
		monitors[i] = NewMonitor(MonitorConfig{RedirectThreshold: 1, Shards: 2}, clf)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = monitors[i].ProcessPCAP(bytes.NewReader(captures[i].bytes))
		}(i)
	}
	wg.Wait()
	for i, m := range monitors {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		reg := m.Registry()
		if txs, got := m.Stats().Transactions, reg.CounterValue("dynaminer_httpstream_transactions_total"); txs == 0 || got != int64(txs) {
			t.Errorf("monitor %d: registry counts %d parsed transactions, the engine saw %d", i, got, txs)
		}
		if got := reg.CounterValue("dynaminer_httpstream_bytes_total"); got != captures[i].payload {
			t.Errorf("monitor %d: registry counts %d payload bytes, its capture holds %d", i, got, captures[i].payload)
		}
	}
}

// TestTracedMonitorTracesItsCapture: a monitor whose config carries a
// tracer observes its capture's pcap.reassemble and httpstream.parse
// stages, once per conversation, with nothing else set up; an untraced
// monitor counts its capture but times none of it: its registry holds no
// stage histogram.
func TestTracedMonitorTracesItsCapture(t *testing.T) {
	eps, clf := obsFixture(t)
	capture := renderCapture(t, eps[:10], 52)
	reg := NewMetricsRegistry()
	m := NewMonitor(MonitorConfig{RedirectThreshold: 1, Metrics: reg, Tracer: NewTracer(reg, 1)}, clf)
	if _, err := m.ProcessPCAP(bytes.NewReader(capture.bytes)); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int64)
	for _, s := range reg.Snapshot() {
		counts[s.Name] = s.Count
	}
	for _, name := range []string{"dynaminer_stage_pcap_reassemble_seconds", "dynaminer_stage_httpstream_parse_seconds"} {
		if counts[name] != int64(capture.convs) {
			t.Errorf("%s holds %d observations, want one per conversation (%d)", name, counts[name], capture.convs)
		}
	}

	untraced := NewMonitor(MonitorConfig{RedirectThreshold: 1}, clf)
	if _, err := untraced.ProcessPCAP(bytes.NewReader(capture.bytes)); err != nil {
		t.Fatal(err)
	}
	ureg := untraced.Registry()
	if got := ureg.CounterValue("dynaminer_httpstream_bytes_total"); got != capture.payload {
		t.Errorf("untraced monitor counts %d payload bytes, its capture holds %d", got, capture.payload)
	}
	for _, s := range ureg.Snapshot() {
		if s.Type == "histogram" {
			t.Errorf("untraced monitor registers histogram %s", s.Name)
		}
	}
}

// TestStageCountsEqualUnits: every dynaminer_stage_* histogram's count is
// the units its stage saw, whatever the tracer's sampling keeps. Rendered
// captures replay through ProcessPCAP on one and two shards under a tracer
// that samples nothing, and the registry alone must agree with itself:
// one detector.process per transaction, one detector.classify, one
// features.incremental and one ml.score per classification (there is one
// feature path), one journal.write per journal record, and
// one httpstream.parse and one pcap.reassemble per conversation.
func TestStageCountsEqualUnits(t *testing.T) {
	eps, clf := obsFixture(t)
	capture := renderCapture(t, eps, 53)
	for _, shards := range []int{1, 2} {
		reg := NewMetricsRegistry()
		var journal bytes.Buffer
		m := NewMonitor(MonitorConfig{
			RedirectThreshold: 1,
			Shards:            shards,
			Metrics:           reg,
			Tracer:            NewTracer(reg, 0),
			Journal:           obs.NewJournalWriter(&journal),
		}, clf)
		if _, err := m.ProcessPCAP(bytes.NewReader(capture.bytes)); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadJournal(&journal)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int64)
		for _, s := range reg.Snapshot() {
			counts[s.Name] = s.Count
		}
		stage := func(name string) int64 { return counts["dynaminer_stage_"+name+"_seconds"] }
		txs := reg.CounterValue("dynaminer_detector_transactions_total")
		classifications := reg.CounterValue("dynaminer_detector_classifications_total")
		if txs == 0 || classifications == 0 || len(recs) == 0 {
			t.Fatalf("%d shards: %d transactions, %d classifications, %d records: the identity is vacuous",
				shards, txs, classifications, len(recs))
		}
		for _, c := range []struct {
			stage string
			units int64
			what  string
		}{
			{"detector_process", txs, "transactions"},
			{"detector_classify", classifications, "classifications"},
			{"features_incremental", classifications, "classifications"},
			{"ml_score", classifications, "classifications"},
			{"journal_write", int64(len(recs)), "journal records"},
			{"httpstream_parse", int64(capture.convs), "conversations"},
			{"pcap_reassemble", int64(capture.convs), "conversations"},
		} {
			if got := stage(c.stage); got != c.units {
				t.Errorf("%d shards: dynaminer_stage_%s_seconds counts %d, the run saw %d %s", shards, c.stage, got, c.units, c.what)
			}
		}
	}
}
