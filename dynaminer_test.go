package dynaminer

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/pcap"
)

// trainedOnSmallCorpus builds a classifier for the public-API tests.
func trainedOnSmallCorpus(t *testing.T) (*Classifier, []Episode) {
	t.Helper()
	eps := Corpus(CorpusConfig{Seed: 11, Infections: 120, Benign: 140})
	c, err := Train(eps, TrainConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c, eps
}

func TestTrainAndClassify(t *testing.T) {
	c, eps := trainedOnSmallCorpus(t)
	correct, total := 0, 0
	for i := range eps {
		w := EpisodeWCG(&eps[i])
		if c.IsInfection(w) == eps[i].Infection {
			correct++
		}
		total++
	}
	if frac := float64(correct) / float64(total); frac < 0.95 {
		t.Fatalf("training-set accuracy = %v, want >= 0.95", frac)
	}
}

func TestScoreRange(t *testing.T) {
	c, eps := trainedOnSmallCorpus(t)
	for i := range eps[:20] {
		s := c.Score(EpisodeWCG(&eps[i]))
		if s < 0 || s > 1 {
			t.Fatalf("score out of range: %v", s)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c, eps := trainedOnSmallCorpus(t)
	var buf bytes.Buffer
	if err := c.SaveBlob(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eps[:10] {
		w := EpisodeWCG(&eps[i])
		if c.Score(w) != loaded.Score(w) {
			t.Fatal("loaded model scores differ")
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	c, _ := trainedOnSmallCorpus(t)
	path := filepath.Join(t.TempDir(), "model.dmfb")
	if err := c.SaveBlobFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.dmfb")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestPCAPRoundTripThroughPublicAPI(t *testing.T) {
	eps := Corpus(CorpusConfig{Seed: 21, Infections: 2, Benign: 1})
	dir := t.TempDir()
	path := filepath.Join(dir, "ep.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eps[0].WritePCAP(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	txs, err := ReadPCAPFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != len(eps[0].Txs) {
		t.Fatalf("recovered %d transactions, want %d", len(txs), len(eps[0].Txs))
	}
	w := BuildWCG(txs)
	v := ExtractFeatures(w)
	if len(v) != NumFeatures {
		t.Fatalf("feature vector length %d", len(v))
	}
	if FeatureName(0) != "Origin" {
		t.Fatal("feature names broken")
	}
}

// TestReusedTupleKeepsBothConnections: two connections on the same four
// ports (a client reusing its source port) are two conversations. The
// capture path once keyed a flow by its 4-tuple for the whole capture and
// ignored a second SYN, so the second connection's segments — the same
// sequence numbers over again — were dropped as retransmissions.
func TestReusedTupleKeepsBothConnections(t *testing.T) {
	var pkts []pcap.Packet
	for i, page := range []string{"first", "second"} {
		ts := time.Date(2016, 7, 10, 14, 0, i, 0, time.UTC)
		conv, err := pcap.BuildConversation(pcap.Conversation{
			ClientIP: netip.MustParseAddr("10.0.0.5"), ServerIP: netip.MustParseAddr("203.0.113.80"),
			ClientPort: 49200, ServerPort: 80,
			Exchanges: []pcap.Exchange{
				{ClientToServer: true, Payload: []byte("GET /" + page + " HTTP/1.1\r\nHost: reuse.example\r\n\r\n"), Timestamp: ts},
				{ClientToServer: false, Payload: []byte("HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(len(page)) + "\r\n\r\n" + page), Timestamp: ts.Add(40 * time.Millisecond)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, conv...)
	}
	type writer interface{ WritePacket(pcap.Packet) error }
	for format, w := range map[string]func(io.Writer) writer{
		"pcap":   func(w io.Writer) writer { return pcap.NewWriter(w) },
		"pcapng": func(w io.Writer) writer { return pcap.NewNGWriter(w) },
	} {
		var buf bytes.Buffer
		out := w(&buf)
		for _, p := range pkts {
			if err := out.WritePacket(p); err != nil {
				t.Fatal(err)
			}
		}
		txs, err := ReadPCAP(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(txs) != 2 || txs[0].URI != "/first" || txs[1].URI != "/second" ||
			string(txs[0].Body) != "first" || string(txs[1].Body) != "second" {
			t.Fatalf("%s: recovered %d transactions %v, want /first and /second", format, len(txs), txs)
		}
	}
}

func TestReadPCAPFileErrors(t *testing.T) {
	if _, err := ReadPCAPFile("/nonexistent/capture.pcap"); err == nil {
		t.Fatal("missing capture must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.pcap")
	if err := os.WriteFile(bad, []byte("not a pcap"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPCAPFile(bad); err == nil {
		t.Fatal("garbage capture must error")
	}
}

func TestMonitorEndToEnd(t *testing.T) {
	eps := Corpus(CorpusConfig{Seed: 31, Infections: 120, Benign: 140})
	c, err := TrainForMonitoring(eps, TrainConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Replay fresh infections through the monitor.
	fresh := Corpus(CorpusConfig{Seed: 99, Infections: 30, Benign: 30})
	detected, falseAlerts := 0, 0
	for i := range fresh {
		m := NewMonitor(MonitorConfig{RedirectThreshold: 1}, c)
		alerts := m.ProcessAll(fresh[i].Txs)
		if fresh[i].Infection && len(alerts) > 0 {
			detected++
		}
		if !fresh[i].Infection && len(alerts) > 0 {
			falseAlerts++
		}
	}
	if detected < 20 {
		t.Fatalf("monitor detected %d/30 infections", detected)
	}
	if falseAlerts > 5 {
		t.Fatalf("monitor false-alerted on %d/30 benign sessions", falseAlerts)
	}
}

func TestMonitorProcessPCAP(t *testing.T) {
	eps := Corpus(CorpusConfig{Seed: 41, Infections: 80, Benign: 80})
	c, err := TrainForMonitoring(eps, TrainConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Find an infection episode, write it as pcap, replay forensically.
	var inf *Episode
	fresh := Corpus(CorpusConfig{Seed: 77, Infections: 10, Benign: 0})
	for i := range fresh {
		if fresh[i].Infection {
			inf = &fresh[i]
			break
		}
	}
	var buf bytes.Buffer
	if err := inf.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(MonitorConfig{RedirectThreshold: 1}, c)
	alerts, err := m.ProcessPCAP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Transactions == 0 {
		t.Fatal("no transactions processed")
	}
	t.Logf("pcap replay: %d transactions, %d alerts", st.Transactions, len(alerts))
}

func TestEpisodeDatasetAndForestAccess(t *testing.T) {
	c, eps := trainedOnSmallCorpus(t)
	ds := EpisodeDataset(eps[:20])
	if ds.Len() != 20 || ds.NumFeatures() != NumFeatures {
		t.Fatalf("dataset shape %d x %d", ds.Len(), ds.NumFeatures())
	}
	if c.FlatForest() == nil || c.FlatForest().NumTrees() != 20 {
		t.Fatal("forest accessor broken")
	}
	x := ExtractFeatures(EpisodeWCG(&eps[0]))
	if s := c.FlatForest().Score(x); s != c.Score(EpisodeWCG(&eps[0])) {
		t.Fatalf("FlatForest().Score %v disagrees with Score", s)
	}
}

func TestMonitorSingleProcess(t *testing.T) {
	eps := Corpus(CorpusConfig{Seed: 31, Infections: 60, Benign: 60})
	c, err := TrainForMonitoring(eps, TrainConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(MonitorConfig{RedirectThreshold: 1}, c)
	var inf *Episode
	for i := range eps {
		if eps[i].Infection {
			inf = &eps[i]
			break
		}
	}
	total := 0
	for _, tx := range inf.Txs {
		total += len(m.Process(tx))
	}
	if m.Stats().Transactions != len(inf.Txs) {
		t.Fatalf("processed %d, want %d", m.Stats().Transactions, len(inf.Txs))
	}
	_ = total
}

// roundTripFunc is an upstream that answers every request itself.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestNewProxyDefaults: a proxy serves its Monitor's engine. A download
// from a default trusted vendor is weeded out by the Monitor (the
// TrustedVendors default lives in NewMonitor alone), and the proxy's
// counters sit on the Monitor's registry beside the engine's.
func TestNewProxyDefaults(t *testing.T) {
	c, _ := trainedOnSmallCorpus(t)
	m := NewMonitor(MonitorConfig{}, c)
	p := NewProxy(ProxyConfig{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("MZ")), Request: r}, nil
	})}, m)
	w := httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "http://download.windowsupdate.com/kb.exe", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if st := m.Stats(); st.Transactions != 1 || st.Weeded != 1 {
		t.Fatalf("monitor stats %+v, want the one transaction weeded", st)
	}
	if n := m.Registry().CounterValue("dynaminer_proxy_requests_total"); n != 1 || p.Stats().Requests != 1 {
		t.Fatalf("proxy requests on the monitor's registry = %d, stats %+v", n, p.Stats())
	}
}
