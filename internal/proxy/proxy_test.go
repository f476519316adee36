package proxy

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"dynaminer/internal/detector"
	"dynaminer/internal/wcg"
)

// constScorer returns a fixed infection probability.
type constScorer float64

func (c constScorer) Score([]float64) float64 { return float64(c) }

// newEngine returns a default-configured engine serving model.
func newEngine(model detector.Scorer) *detector.Engine {
	return detector.New(detector.Config{}, model)
}

// fakeClock is an injectable clock. Each read advances it 50 ms, until
// it is frozen: then every read returns the same instant until Advance
// moves it.
type fakeClock struct {
	mu     sync.Mutex
	t      time.Time
	frozen bool
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.frozen {
		f.t = f.t.Add(50 * time.Millisecond)
	}
	return f.t
}

// Freeze stops the clock at the instant the last read returned and
// returns that instant.
func (f *fakeClock) Freeze() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.frozen = true
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// originMux simulates the web: a benign page, a redirect chain, and an
// exploit payload, all host-routed via the Host header.
func originMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Host == "benign.com":
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, "<html>hello</html>")
		case r.Host == "hop1.evil" && r.URL.Path == "/go":
			http.Redirect(w, r, "http://hop2.evil/go", http.StatusFound)
		case r.Host == "hop2.evil" && r.URL.Path == "/go":
			http.Redirect(w, r, "http://hop3.evil/land", http.StatusFound)
		case r.Host == "hop3.evil" && r.URL.Path == "/land":
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, `<html><iframe src="http://drop.evil/p.exe"></iframe></html>`)
		case r.Host == "drop.evil":
			w.Header().Set("Content-Type", "application/x-msdownload")
			fmt.Fprint(w, strings.Repeat("M", 4096))
		default:
			http.NotFound(w, r)
		}
	})
	return mux
}

// testSetup wires origin server -> proxy -> client.
func testSetup(t *testing.T, cfg Config, engine *detector.Engine) (*Proxy, *http.Client, func()) {
	t.Helper()
	return testSetupWith(t, cfg, engine, originMux())
}

// testSetupWith wires an origin serving web -> proxy -> client.
func testSetupWith(t *testing.T, cfg Config, engine *detector.Engine, web http.Handler) (*Proxy, *http.Client, func()) {
	t.Helper()
	origin := httptest.NewServer(web)

	// Route all upstream traffic to the test origin regardless of logical
	// host, preserving the Host header for routing.
	cfg.Transport = rewriteTransport{target: origin.URL}

	p := New(cfg, engine)
	proxySrv := httptest.NewServer(p)
	proxyURL, err := url.Parse(proxySrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{
		Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)},
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse // follow redirects manually
		},
	}
	cleanup := func() {
		proxySrv.Close()
		origin.Close()
	}
	return p, client, cleanup
}

// rewriteTransport sends every request to the test origin, keeping the
// logical Host for routing.
type rewriteTransport struct{ target string }

func (rt rewriteTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	u, err := url.Parse(rt.target)
	if err != nil {
		return nil, err
	}
	clone := r.Clone(r.Context())
	clone.URL.Scheme = u.Scheme
	clone.Host = r.URL.Host
	clone.URL.Host = u.Host
	return http.DefaultTransport.RoundTrip(clone)
}

func get(t *testing.T, client *http.Client, rawurl, referer string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawurl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if referer != "" {
		req.Header.Set("Referer", referer)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp
}

func TestProxyRelaysBenignTraffic(t *testing.T) {
	p, client, cleanup := testSetup(t, Config{}, newEngine(constScorer(0)))
	defer cleanup()

	resp := get(t, client, "http://benign.com/", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	st := p.Stats()
	if st.Relayed != 1 || st.Alerts != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if es := p.engine.Stats(); es.Transactions != 1 {
		t.Fatalf("engine stats = %+v", es)
	}
}

// driveInfection walks the client through the redirect chain and payload.
func driveInfection(t *testing.T, client *http.Client) {
	t.Helper()
	get(t, client, "http://hop1.evil/go", "http://benign.com/")
	get(t, client, "http://hop2.evil/go", "http://hop1.evil/go")
	get(t, client, "http://hop3.evil/land", "http://hop2.evil/go")
	get(t, client, "http://drop.evil/p.exe", "http://hop3.evil/land")
}

func TestProxyDetectsAndAlerts(t *testing.T) {
	var alerts []detector.Alert
	cfg := Config{
		OnAlert: func(a detector.Alert) { alerts = append(alerts, a) },
	}
	p, client, cleanup := testSetup(t, cfg, newEngine(constScorer(0.95)))
	defer cleanup()

	get(t, client, "http://benign.com/", "")
	driveInfection(t, client)

	if len(alerts) != 1 {
		t.Fatalf("alerts = %d (engine %+v)", len(alerts), p.engine.Stats())
	}
	if alerts[0].TriggerHost != "drop.evil" {
		t.Fatalf("alert host = %s", alerts[0].TriggerHost)
	}
	if p.Stats().Alerts != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

// TestProxyRequestTimeFromClock pins the transaction's request time to the
// injected clock: every request edge of the alert's graph is stamped with
// an instant Config.Now handed out, years from the wall clock.
func TestProxyRequestTimeFromClock(t *testing.T) {
	clock := &fakeClock{t: time.Date(2016, 7, 10, 12, 0, 0, 0, time.UTC)}
	start := clock.t
	var alerts []detector.Alert
	cfg := Config{
		Now:     clock.Now,
		OnAlert: func(a detector.Alert) { alerts = append(alerts, a) },
	}
	_, client, cleanup := testSetup(t, cfg, newEngine(constScorer(0.95)))
	driveInfection(t, client)
	cleanup() // waits for every handler, so alerts is settled
	end := clock.Now()

	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	requests := 0
	for _, e := range alerts[0].Graph().Edges {
		if e.Kind != wcg.EdgeRequest {
			continue
		}
		requests++
		if et := wcg.Time(e.Time); et.Before(start) || et.After(end) {
			t.Fatalf("request edge stamped %v, outside the injected clock's [%v, %v]", et, start, end)
		}
	}
	if requests == 0 {
		t.Fatal("the alert's graph has no request edge")
	}
}

// vectorLog scores every vector 0.95 and keeps a copy of each, so two
// engines can be compared on the exact features they classified.
type vectorLog struct {
	mu      sync.Mutex
	vectors [][]float64
}

func (v *vectorLog) Score(x []float64) float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.vectors = append(v.vectors, append([]float64(nil), x...))
	return 0.95
}

// outOfOrderRun drives one client through the proxy into a watch, then
// sends two concurrent requests on it: the first is stamped first, but
// its upstream answers only after the second one has been relayed and
// classified, so the engine receives the two out of request-time order.
// Three more requests grow the watch in order. It returns what the
// engine alerted, the vectors it scored and its stats.
func outOfOrderRun(t *testing.T, cfg detector.Config) ([]detector.Alert, [][]float64, detector.Stats) {
	t.Helper()
	clock := &fakeClock{t: time.Date(2016, 7, 10, 12, 0, 0, 0, time.UTC)}
	var mu sync.Mutex
	var alerts []detector.Alert
	scorer := &vectorLog{}
	engine := detector.New(cfg, scorer)
	arrived, release := make(chan struct{}), make(chan struct{})
	web := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow.exe" {
			close(arrived)
			<-release
		}
		originMux().ServeHTTP(w, r)
	})
	_, client, cleanup := testSetupWith(t, Config{
		Now: clock.Now,
		OnAlert: func(a detector.Alert) {
			mu.Lock()
			alerts = append(alerts, a)
			mu.Unlock()
		},
	}, engine, web)
	defer cleanup()

	// The proxy hands a transaction to the engine after relaying its
	// response, so each step waits for the engine to have seen it.
	seen := 0
	settle := func() {
		seen++
		for deadline := time.Now().Add(10 * time.Second); engine.Stats().Transactions < seen; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the engine saw %d transactions, want %d", engine.Stats().Transactions, seen)
			}
		}
	}
	fetch := func(rawurl, referer string) {
		get(t, client, rawurl, referer)
		settle()
	}
	fetch("http://hop1.evil/go", "http://benign.com/")
	fetch("http://hop2.evil/go", "http://hop1.evil/go")
	fetch("http://hop3.evil/land", "http://hop2.evil/go")
	fetch("http://drop.evil/p.exe", "http://hop3.evil/land")

	slow := make(chan struct{})
	go func() {
		defer close(slow)
		resp, err := client.Get("http://drop.evil/slow.exe")
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	<-arrived // the slow request is stamped
	fetch("http://drop.evil/fast.exe", "")
	close(release)
	<-slow
	settle()
	for _, path := range []string{"/a.exe", "/b.exe", "/c.exe"} {
		fetch("http://drop.evil"+path, "")
	}
	mu.Lock()
	defer mu.Unlock()
	return alerts, scorer.vectors, engine.Stats()
}

// TestProxyOutOfOrderReseedsOnce is the deployment's own out-of-order
// case: two concurrent requests of one watched client that complete in
// the other order. The watch reseeds once and appends every later
// request, and the alerts and scored vectors equal those of an engine
// that reseeds on every classification.
func TestProxyOutOfOrderReseedsOnce(t *testing.T) {
	alerts, vectors, st := outOfOrderRun(t, detector.Config{})
	wantAlerts, wantVectors, oracle := outOfOrderRun(t, detector.Config{DisableIncremental: true})
	if st.Classifications != 6 || st.Rebuilds != 1 {
		t.Fatalf("engine stats %+v; want 6 classifications and exactly 1 reseed", st)
	}
	if oracle.Rebuilds != oracle.Classifications {
		t.Fatalf("the always-reseeding engine reseeded %d of %d classifications", oracle.Rebuilds, oracle.Classifications)
	}
	if len(alerts) == 0 || len(alerts) != len(wantAlerts) {
		t.Fatalf("%d alerts, the always-reseeding engine raised %d", len(alerts), len(wantAlerts))
	}
	for i, a := range alerts {
		b := wantAlerts[i]
		if !a.Time.Equal(b.Time) || a.TriggerHost != b.TriggerHost || a.ClusterID != b.ClusterID ||
			math.Float64bits(a.Score) != math.Float64bits(b.Score) || a.WCGOrder != b.WCGOrder || a.WCGSize != b.WCGSize {
			t.Fatalf("alert %d = %+v, the always-reseeding engine's = %+v", i, a, b)
		}
		var ga, gb bytes.Buffer
		if err := a.Graph().WriteJSON(&ga); err != nil {
			t.Fatal(err)
		}
		if err := b.Graph().WriteJSON(&gb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ga.Bytes(), gb.Bytes()) {
			t.Fatalf("alert %d's WCG differs from the always-reseeding engine's", i)
		}
	}
	if len(vectors) != len(wantVectors) {
		t.Fatalf("%d vectors scored, the always-reseeding engine scored %d", len(vectors), len(wantVectors))
	}
	for i := range vectors {
		for j := range vectors[i] {
			if math.Float64bits(vectors[i][j]) != math.Float64bits(wantVectors[i][j]) {
				t.Fatalf("classification %d feature %d = %v, the always-reseeding engine's %v", i, j, vectors[i][j], wantVectors[i][j])
			}
		}
	}
}

// TestProxyBlocksAfterAlert pins the ten-minute block: an alerted
// client is refused up to 10 min after the block began and served again
// at 10 min. The clock freezes at the alert, the instant the block began.
func TestProxyBlocksAfterAlert(t *testing.T) {
	clock := &fakeClock{t: time.Date(2016, 7, 10, 12, 0, 0, 0, time.UTC)}
	cfg := Config{
		BlockAfterAlert: true,
		Now:             clock.Now,
		OnAlert:         func(detector.Alert) { clock.Freeze() },
	}
	p, client, cleanup := testSetup(t, cfg, newEngine(constScorer(0.95)))
	defer cleanup()

	driveInfection(t, client)
	if p.Stats().BlockedClients != 1 {
		t.Fatalf("blocked = %d, want 1 (stats %+v, engine %+v)", p.Stats().BlockedClients, p.Stats(), p.engine.Stats())
	}
	// The session is terminated: further requests are refused, up to the
	// last nanosecond of the block.
	resp := get(t, client, "http://benign.com/", "")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("post-alert status = %d, want 403", resp.StatusCode)
	}
	clock.Advance(10*time.Minute - time.Nanosecond)
	resp = get(t, client, "http://benign.com/", "")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status 1 ns before the block lifts = %d, want 403", resp.StatusCode)
	}
	if p.Stats().Refused != 2 {
		t.Fatalf("refused = %d, want 2", p.Stats().Refused)
	}
	// Once the block expires the client may browse again.
	clock.Advance(time.Nanosecond)
	resp = get(t, client, "http://benign.com/", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status as the block lifts = %d, want 200", resp.StatusCode)
	}
}

func TestProxyRefusesConnect(t *testing.T) {
	_, client, cleanup := testSetup(t, Config{}, newEngine(constScorer(0)))
	defer cleanup()
	// https through the proxy would use CONNECT; simulate with a raw
	// CONNECT request.
	req, err := http.NewRequest(http.MethodConnect, "http://secure.example:443", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		// Transport-level CONNECT handling can also surface as an error;
		// both outcomes mean the tunnel was refused.
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("CONNECT must be refused")
	}
}

func TestProxyUpstreamError(t *testing.T) {
	cfg := Config{Transport: errTransport{}}
	p := New(cfg, newEngine(constScorer(0)))
	srv := httptest.NewServer(p)
	defer srv.Close()
	proxyURL, _ := url.Parse(srv.URL)
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
	resp, err := client.Get("http://unreachable.example/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if p.Stats().UpstreamErrors != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

type errTransport struct{}

func (errTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, fmt.Errorf("synthetic upstream failure")
}

func TestBufferPrefix(t *testing.T) {
	prefix, rest, err := bufferPrefix(strings.NewReader("hello world"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(prefix) != "hello" && len(prefix) < 5 {
		t.Fatalf("prefix = %q", prefix)
	}
	tail, _ := io.ReadAll(rest)
	if string(prefix)+string(tail) != "hello world" {
		t.Fatalf("prefix+tail = %q + %q", prefix, tail)
	}
	// Short body: everything buffered.
	prefix, rest, err = bufferPrefix(strings.NewReader("tiny"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(prefix) != "tiny" {
		t.Fatalf("prefix = %q", prefix)
	}
	if tail, _ := io.ReadAll(rest); len(tail) != 0 {
		t.Fatal("short body must leave no tail")
	}
}

// TestTransactionDoesNotPinRelayBuffer pins the proxied body's retention:
// the transaction once kept a 64 KiB reslice of the relay's prefix buffer,
// so a 1 MiB page pinned the whole 256 KiB-plus buffer for as long as its
// cluster lived, and an image kept 64 KiB nothing reads.
func TestTransactionDoesNotPinRelayBuffer(t *testing.T) {
	page := strings.Repeat("<p>a very long landing page</p>\n", (1<<20)/32)
	for _, tc := range []struct {
		uri, ctype string
		kept       bool
	}{
		{"/landing", "text/html", true},
		{"/banner", "image/png", false},
	} {
		r := httptest.NewRequest(http.MethodGet, "http://a.example"+tc.uri, nil)
		resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {tc.ctype}}}
		prefix, rest, err := bufferPrefix(strings.NewReader(page), maxCapturedBody)
		if err != nil {
			t.Fatal(err)
		}
		tail, _ := io.Copy(io.Discard, rest)
		now := time.Now()
		tx := (&Proxy{}).buildTransaction(r, resp, netip.MustParseAddr("10.0.0.5"), now, now, prefix, len(prefix)+int(tail))
		if tx.BodySize != len(page) {
			t.Fatalf("%s: BodySize %d, want %d", tc.ctype, tx.BodySize, len(page))
		}
		switch {
		case !tc.kept && tx.Body != nil:
			t.Fatalf("%s: kept %d body bytes (cap %d), want none", tc.ctype, len(tx.Body), cap(tx.Body))
		case tc.kept && (string(tx.Body) != page[:64<<10] || cap(tx.Body) > 64<<10):
			t.Fatalf("%s: kept %d body bytes in a %d-byte array, want the first %d in one no larger", tc.ctype, len(tx.Body), cap(tx.Body), 64<<10)
		}
	}
}

// recordTransport captures the upstream request and answers with a fixed
// header set, so hop-by-hop handling is observable on both directions.
type recordTransport struct {
	mu      sync.Mutex
	last    *http.Request
	respHdr http.Header
}

func (rt *recordTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	rt.last = r
	rt.mu.Unlock()
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     rt.respHdr.Clone(),
		Body:       io.NopCloser(strings.NewReader("<html>ok</html>")),
		Request:    r,
	}, nil
}

func TestHopByHopHeadersStripped(t *testing.T) {
	respHdr := http.Header{}
	respHdr.Set("Content-Type", "text/html")
	respHdr.Set("Connection", "keep-alive, x-hop-token")
	respHdr.Set("Keep-Alive", "timeout=5, max=100")
	respHdr.Set("Upgrade", "h2c")
	respHdr.Set("Trailer", "X-Checksum")
	respHdr.Set("Transfer-Encoding", "chunked")
	respHdr.Set("X-Hop-Token", "secret") // connection-scoped via Connection
	respHdr.Set("X-End-To-End", "keep-me")
	rt := &recordTransport{respHdr: respHdr}
	p := New(Config{Transport: rt}, newEngine(constScorer(0)))

	r := httptest.NewRequest(http.MethodGet, "http://origin.example/page", nil)
	r.RemoteAddr = "192.0.2.10:4444"
	r.Header.Set("Referer", "http://before.example/")
	r.Header.Set("Connection", "keep-alive, x-private")
	r.Header.Set("X-Private", "token") // connection-scoped via Connection
	r.Header.Set("Keep-Alive", "timeout=5")
	r.Header.Set("TE", "trailers")
	r.Header.Set("Trailer", "X-Req-Trailer")
	r.Header.Set("Upgrade", "websocket")
	r.Header.Set("Proxy-Authorization", "Basic Zm9vOmJhcg==")
	w := httptest.NewRecorder()
	p.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}

	// Upstream direction: RFC 7230 §6.1 headers and Connection-named
	// fields must not be forwarded.
	up := rt.last
	for _, name := range []string{"Connection", "Keep-Alive", "TE", "Trailer", "Upgrade", "Proxy-Authorization", "X-Private"} {
		if got := up.Header.Get(name); got != "" {
			t.Errorf("hop-by-hop request header %s forwarded upstream (%q)", name, got)
		}
	}
	if up.Header.Get("Referer") != "http://before.example/" {
		t.Error("end-to-end request header lost")
	}

	// Client direction: the relayed response must be stripped too.
	got := w.Result().Header
	for _, name := range []string{"Connection", "Keep-Alive", "Upgrade", "Trailer", "Transfer-Encoding", "X-Hop-Token"} {
		if v := got.Get(name); v != "" {
			t.Errorf("hop-by-hop response header %s relayed to client (%q)", name, v)
		}
	}
	if got.Get("X-End-To-End") != "keep-me" {
		t.Error("end-to-end response header lost")
	}
	if got.Get("Content-Type") != "text/html" {
		t.Error("content-type lost in relay")
	}
}

func TestXForwardedForAttribution(t *testing.T) {
	clock := &fakeClock{t: time.Date(2016, 7, 10, 12, 0, 0, 0, time.UTC)}
	cfg := Config{
		BlockAfterAlert:    true,
		Now:                clock.Now,
		TrustXForwardedFor: true,
	}
	p, client, cleanup := testSetup(t, cfg, newEngine(constScorer(0.95)))
	defer cleanup()

	// Drive the infection with one forwarded client identity.
	infected := func(rawurl, referer string) {
		req, err := http.NewRequest(http.MethodGet, rawurl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if referer != "" {
			req.Header.Set("Referer", referer)
		}
		req.Header.Set("X-Forwarded-For", "203.0.113.50, 10.0.0.1")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	infected("http://hop1.evil/go", "http://benign.com/")
	infected("http://hop2.evil/go", "http://hop1.evil/go")
	infected("http://hop3.evil/land", "http://hop2.evil/go")
	infected("http://drop.evil/p.exe", "http://hop3.evil/land")
	if p.Stats().BlockedClients != 1 {
		t.Fatalf("blocked = %d (stats %+v)", p.Stats().BlockedClients, p.engine.Stats())
	}

	// A different forwarded identity from the same TCP peer is NOT blocked.
	req, err := http.NewRequest(http.MethodGet, "http://benign.com/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Forwarded-For", "203.0.113.99")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other client status = %d, want 200", resp.StatusCode)
	}
	// The infected identity IS blocked.
	req2, err := http.NewRequest(http.MethodGet, "http://benign.com/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("X-Forwarded-For", "203.0.113.50")
	resp2, err := client.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusForbidden {
		t.Fatalf("infected client status = %d, want 403", resp2.StatusCode)
	}
}
