package dynaminer

// PR-5 acceptance tests for the observability layer: the registry is the
// single source of truth behind MonitorStats, every alert leaves a
// provenance record whose feature vector and score are bit-identical to
// the decision, and the admin endpoint serves a well-formed Prometheus
// exposition for a live monitor.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"testing"

	"dynaminer/internal/obs"
)

// obsFixture trains a monitoring classifier on a seeded 55-episode corpus
// once and caches it for every observability test.
var (
	obsOnce sync.Once
	obsEps  []Episode
	obsClf  *Classifier
	obsErr  error
)

func obsFixture(t *testing.T) ([]Episode, *Classifier) {
	t.Helper()
	obsOnce.Do(func() {
		obsEps = Corpus(CorpusConfig{Seed: 17, Infections: 28, Benign: 27})
		obsClf, obsErr = TrainForMonitoring(obsEps, TrainConfig{Seed: 5})
	})
	if obsErr != nil {
		t.Fatal(obsErr)
	}
	return obsEps, obsClf
}

// obsStream merges the corpus into one replayable stream with a distinct
// client per episode, ordered by request time.
func obsStream(eps []Episode) []Transaction {
	var stream []Transaction
	for i := range eps {
		addr := netip.AddrFrom4([4]byte{10, 40, byte(i / 200), byte(1 + i%200)})
		for _, tx := range eps[i].Txs {
			tx.ClientIP = addr
			stream = append(stream, tx)
		}
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].ReqTime.Before(stream[j].ReqTime) })
	return stream
}

// TestRegistrySnapshotMatchesStats replays the seeded corpus and checks
// that the legacy MonitorStats view and the metrics registry agree
// field-for-field: Stats is a bridged read of the registry, so any drift
// means a counter was incremented on one side only.
func TestRegistrySnapshotMatchesStats(t *testing.T) {
	eps, clf := obsFixture(t)
	m := NewMonitor(MonitorConfig{RedirectThreshold: 1, Shards: 2}, clf)
	m.ProcessAll(obsStream(eps))
	st := m.Stats()
	if st.Transactions == 0 || st.CluesFired == 0 || st.Classifications == 0 {
		t.Fatalf("seeded run exercised nothing: %+v", st)
	}

	reg := m.Registry()
	want := map[string]int{
		"dynaminer_detector_transactions_total":    st.Transactions,
		"dynaminer_detector_weeded_total":          st.Weeded,
		"dynaminer_detector_clusters_total":        st.Clusters,
		"dynaminer_detector_evicted_total":         st.Evicted,
		"dynaminer_detector_clues_fired_total":     st.CluesFired,
		"dynaminer_detector_classifications_total": st.Classifications,
		"dynaminer_detector_alerts_total":          st.Alerts,
		"dynaminer_detector_dropped_total":         st.Dropped,
		"dynaminer_detector_rebuilds_total":        st.Rebuilds,
		"dynaminer_detector_panics_total":          st.Panics,
		"dynaminer_detector_quarantined_total":     st.Quarantined,
	}
	for name, v := range want {
		if got := int(reg.CounterValue(name)); got != v {
			t.Errorf("%s = %d, Stats says %d", name, got, v)
		}
	}
	if g, w := int(reg.GaugeValue("dynaminer_detector_watched_total")), len(m.Watched()); g != w {
		t.Errorf("watched gauge = %d, %d watches live", g, w)
	}

	// The JSON snapshot must carry every Stats-backed metric by name.
	byName := map[string]bool{}
	for _, s := range reg.Snapshot() {
		byName[s.Name] = true
	}
	for name := range want {
		if !byName[name] {
			t.Errorf("snapshot lacks %s", name)
		}
	}
	// Latency is the tracer's: an untraced monitor keeps no histogram.
	for _, ms := range reg.Snapshot() {
		if ms.Type == "histogram" {
			t.Errorf("untraced monitor registers histogram %s", ms.Name)
		}
	}
}

// TestEveryAlertJournaled is the provenance acceptance check: each alert
// of a seeded run appends exactly one record whose score is bit-identical
// to the alert's, and whose recorded feature vector reproduces that score
// bit-for-bit through the same ensemble.
func TestEveryAlertJournaled(t *testing.T) {
	eps, clf := obsFixture(t)
	var buf bytes.Buffer
	cfg := MonitorConfig{RedirectThreshold: 1, Shards: 1}
	cfg.Journal = obs.NewJournalWriter(&buf)
	m := NewMonitor(cfg, clf)
	alerts := m.ProcessAll(obsStream(eps))
	if len(alerts) == 0 {
		t.Fatal("seeded run raised no alerts; the provenance check is vacuous")
	}

	recs, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(alerts) {
		t.Fatalf("journal has %d records for %d alerts", len(recs), len(alerts))
	}
	for i, a := range alerts {
		r := recs[i]
		if math.Float64bits(r.Score) != math.Float64bits(a.Score) {
			t.Fatalf("record %d: score %v differs from alert score %v", i, r.Score, a.Score)
		}
		if r.Client != a.Client.String() || r.ClusterID != a.ClusterID {
			t.Fatalf("record %d: identity %s/%d, alert %s/%d", i, r.Client, r.ClusterID, a.Client, a.ClusterID)
		}
		if len(r.Features) != NumFeatures {
			t.Fatalf("record %d: %d features, want %d", i, len(r.Features), NumFeatures)
		}
		if got := clf.flat.Score(r.Features); math.Float64bits(got) != math.Float64bits(r.Score) {
			t.Fatalf("record %d: recorded features rescore to %v, recorded score is %v (not bit-identical)", i, got, r.Score)
		}
		if r.ClueHost == "" || r.CluePayload == "" {
			t.Fatalf("record %d: clue provenance missing: %+v", i, r)
		}
		// The record's shape and the alert's summary fields are read off
		// the live graph at alert time; the graph the alert builds on
		// request must agree with both.
		g := a.Graph()
		if r.WCGNodes != g.Order() || r.WCGEdges != g.Size() || r.WCGStructVersion != g.StructVersion() {
			t.Fatalf("record %d: WCG %dn/%de/v%d, alert Graph() %dn/%de/v%d", i,
				r.WCGNodes, r.WCGEdges, r.WCGStructVersion, g.Order(), g.Size(), g.StructVersion())
		}
		var summary struct{ WCGOrder, WCGSize int }
		if data, err := json.Marshal(a); err != nil {
			t.Fatal(err)
		} else if err := json.Unmarshal(data, &summary); err != nil {
			t.Fatal(err)
		}
		if summary.WCGOrder != g.Order() || summary.WCGSize != g.Size() || a.WCGOrder != g.Order() || a.WCGSize != g.Size() {
			t.Fatalf("alert %d: JSON wcgOrder/wcgSize %d/%d, fields %d/%d, Graph() %d/%d", i,
				summary.WCGOrder, summary.WCGSize, a.WCGOrder, a.WCGSize, g.Order(), g.Size())
		}
		if r.Trees == 0 || r.Votes < 1 || r.Votes > r.Trees {
			t.Fatalf("record %d: implausible vote tally %d/%d", i, r.Votes, r.Trees)
		}
		if r.Threshold != 0.5 {
			t.Fatalf("record %d: threshold %v, want the engine default 0.5", i, r.Threshold)
		}
	}
}

// TestMonitorAdminServesMetrics starts the admin server on a live monitor
// and checks the exposition end to end: well-formed Prometheus text whose
// transaction counter matches Stats, a healthy /healthz, an idempotent
// StartAdmin, and a socket that Close actually releases.
func TestMonitorAdminServesMetrics(t *testing.T) {
	eps, clf := obsFixture(t)
	m := NewMonitor(MonitorConfig{RedirectThreshold: 1}, clf)
	addr, err := m.StartAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.ProcessAll(obsStream(eps[:10]))
	st := m.Stats()

	if again, err := m.StartAdmin("127.0.0.1:0"); err != nil || again != addr {
		t.Fatalf("second StartAdmin = %q, %v; want the running server %q", again, err, addr)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("live /metrics is not valid exposition text: %v\n%s", err, body)
	}
	fam := fams["dynaminer_detector_transactions_total"]
	if fam == nil {
		t.Fatal("exposition lacks dynaminer_detector_transactions_total")
	}
	if got := fam.Samples["dynaminer_detector_transactions_total"]; got != float64(st.Transactions) {
		t.Fatalf("exposed transactions = %v, Stats says %d", got, st.Transactions)
	}

	hresp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d %q", hresp.StatusCode, hbody)
	}
	var health HealthStatus
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, hbody)
	}
	if !health.Ready || health.Quarantined {
		t.Fatalf("/healthz conditions = %+v, want ready", health)
	}
	if health.ModelVersion == "" {
		t.Fatal("/healthz lacks model_version")
	}

	m.Close()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("admin socket still serving after Close")
	}
}
