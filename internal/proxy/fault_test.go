package proxy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// hungTransport never answers: it parks until the request context
// expires, like an upstream that accepted the connection and went silent.
type hungTransport struct{}

func (hungTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	<-r.Context().Done()
	return nil, r.Context().Err()
}

// countingTransport wraps an attempt schedule: fail[i] decides whether
// attempt i errors (connection-reset style) or succeeds with a small
// HTML response. Attempts past the schedule succeed.
type countingTransport struct {
	mu       sync.Mutex
	attempts int
	fail     []bool
}

func (ct *countingTransport) calls() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.attempts
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.mu.Lock()
	i := ct.attempts
	ct.attempts++
	ct.mu.Unlock()
	if i < len(ct.fail) && ct.fail[i] {
		return nil, fmt.Errorf("read tcp: connection reset by peer")
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"text/html"}},
		Body:       io.NopCloser(strings.NewReader("<html>ok</html>")),
		Request:    r,
	}, nil
}

// noSleep makes retry backoff instantaneous in tests.
func noSleep(time.Duration) {}

func proxyGet(t *testing.T, p *Proxy, rawurl string) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, rawurl, nil)
	r.RemoteAddr = "192.0.2.10:4444"
	w := httptest.NewRecorder()
	p.ServeHTTP(w, r)
	return w
}

// TestProxyUpstreamTimeout is the regression for the unbounded zero-value
// transport: a never-responding upstream must surface as a 504 within
// UpstreamTimeout (+1s of slack), not pin the handler forever. Before
// UpstreamTimeout existed this test hung.
func TestProxyUpstreamTimeout(t *testing.T) {
	p := New(Config{Transport: hungTransport{}, UpstreamTimeout: 150 * time.Millisecond}, constScorer(0))
	start := time.Now()
	w := proxyGet(t, p, "http://silent.example/")
	elapsed := time.Since(start)
	if elapsed > 150*time.Millisecond+time.Second {
		t.Fatalf("handler took %v, want under UpstreamTimeout+1s", elapsed)
	}
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
	if st := p.Stats(); st.UpstreamErrors != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want UpstreamErrors=1 and no retries of a timeout", st)
	}
}

// slowLorisBody hands out headers immediately but never finishes the
// body: reads park until the request context expires.
type slowLorisBody struct{ r *http.Request }

func (b slowLorisBody) Read([]byte) (int, error) {
	<-b.r.Context().Done()
	return 0, b.r.Context().Err()
}
func (slowLorisBody) Close() error { return nil }

type slowLorisTransport struct{}

func (slowLorisTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"text/html"}},
		Body:       slowLorisBody{r: r},
		Request:    r,
	}, nil
}

// TestProxySlowLorisBody pins the body-read deadline: an upstream that
// sends headers and then trickles nothing cannot wedge bufferPrefix.
func TestProxySlowLorisBody(t *testing.T) {
	p := New(Config{Transport: slowLorisTransport{}, UpstreamTimeout: 150 * time.Millisecond}, constScorer(0))
	start := time.Now()
	w := proxyGet(t, p, "http://loris.example/")
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond+time.Second {
		t.Fatalf("handler took %v, want under UpstreamTimeout+1s", elapsed)
	}
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
	if st := p.Stats(); st.UpstreamErrors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestProxyRetriesTransientFailures pins the happy retry path: two
// connection resets followed by a success relay the page and cost two
// retries.
func TestProxyRetriesTransientFailures(t *testing.T) {
	ct := &countingTransport{fail: []bool{true, true}}
	p := New(Config{Transport: ct, Sleep: noSleep}, constScorer(0))
	w := proxyGet(t, p, "http://flaky.example/")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 after retries", w.Code)
	}
	if ct.calls() != 3 {
		t.Fatalf("attempts = %d, want 3", ct.calls())
	}
	st := p.Stats()
	if st.Retries != 2 || st.Relayed != 1 || st.UpstreamErrors != 0 {
		t.Fatalf("stats = %+v, want Retries=2 Relayed=1", st)
	}
}

// TestProxyDoesNotRetryPOST pins idempotency gating: a POST whose body
// was already consumed by the failed attempt is never re-sent.
func TestProxyDoesNotRetryPOST(t *testing.T) {
	ct := &countingTransport{fail: []bool{true, true, true}}
	p := New(Config{Transport: ct, Sleep: noSleep}, constScorer(0))
	r := httptest.NewRequest(http.MethodPost, "http://flaky.example/submit", strings.NewReader("a=1"))
	r.RemoteAddr = "192.0.2.10:4444"
	w := httptest.NewRecorder()
	p.ServeHTTP(w, r)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", w.Code)
	}
	if ct.calls() != 1 {
		t.Fatalf("attempts = %d, want exactly 1 for POST", ct.calls())
	}
	if st := p.Stats(); st.Retries != 0 || st.UpstreamErrors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// breakerConfig returns a proxy configured for deterministic breaker
// tests: no retries, injected clock, no real sleeps.
func breakerConfig(transport http.RoundTripper, clock *fakeClock) Config {
	return Config{
		Transport:        transport,
		Now:              clock.Now,
		Sleep:            noSleep,
		UpstreamRetries:  -1,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
	}
}

// TestCircuitBreakerOpensAndRecovers walks the circuit through its full
// life: threshold failures open it, an open circuit serves synthesized
// 502s without touching the upstream, the cooldown admits one probe, and
// a successful probe closes the circuit again.
func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	clock := &fakeClock{t: time.Date(2016, 7, 10, 12, 0, 0, 0, time.UTC)}
	ct := &countingTransport{fail: []bool{true, true, true}} // then healthy
	p := New(breakerConfig(ct, clock), constScorer(0))

	for i := 0; i < 3; i++ {
		if w := proxyGet(t, p, "http://down.example/"); w.Code != http.StatusBadGateway {
			t.Fatalf("failure %d: status = %d, want 502", i, w.Code)
		}
	}
	st := p.Stats()
	if st.UpstreamErrors != 3 || st.BreakerTrips != 1 {
		t.Fatalf("stats = %+v, want UpstreamErrors=3 BreakerTrips=1", st)
	}

	// Open: the upstream is not contacted.
	if w := proxyGet(t, p, "http://down.example/"); w.Code != http.StatusBadGateway {
		t.Fatalf("open-circuit status = %d, want 502", w.Code)
	}
	if ct.calls() != 3 {
		t.Fatalf("attempts = %d while open, want 3 (no new contact)", ct.calls())
	}
	if st := p.Stats(); st.BreakerRejected != 1 {
		t.Fatalf("stats = %+v, want BreakerRejected=1", st)
	}

	// After the cooldown a single probe goes through; the upstream has
	// recovered, so the circuit closes and traffic flows again.
	clock.Advance(2 * time.Minute)
	if w := proxyGet(t, p, "http://down.example/"); w.Code != http.StatusOK {
		t.Fatalf("probe status = %d, want 200", w.Code)
	}
	if w := proxyGet(t, p, "http://down.example/"); w.Code != http.StatusOK {
		t.Fatalf("post-recovery status = %d, want 200", w.Code)
	}
	st = p.Stats()
	if st.Relayed != 2 || st.BreakerRejected != 1 {
		t.Fatalf("stats = %+v, want Relayed=2 after recovery", st)
	}
}

// TestCircuitBreakerFailedProbeReopens pins the probe-failure edge: the
// half-open probe failing re-opens the circuit and restarts the cooldown.
func TestCircuitBreakerFailedProbeReopens(t *testing.T) {
	clock := &fakeClock{t: time.Date(2016, 7, 10, 12, 0, 0, 0, time.UTC)}
	ct := &countingTransport{fail: []bool{true, true, true, true}} // probe fails too
	p := New(breakerConfig(ct, clock), constScorer(0))

	for i := 0; i < 3; i++ {
		proxyGet(t, p, "http://down.example/")
	}
	clock.Advance(2 * time.Minute)
	if w := proxyGet(t, p, "http://down.example/"); w.Code != http.StatusBadGateway {
		t.Fatalf("probe status = %d, want 502", w.Code)
	}
	st := p.Stats()
	if st.BreakerTrips != 2 {
		t.Fatalf("stats = %+v, want BreakerTrips=2 (initial + failed probe)", st)
	}
	// Re-opened: rejected again without contact.
	calls := ct.calls()
	if w := proxyGet(t, p, "http://down.example/"); w.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", w.Code)
	}
	if ct.calls() != calls {
		t.Fatal("re-opened circuit contacted the upstream")
	}
	// The cooldown restarts at the failed probe, by the injected clock:
	// one more cooldown admits a second probe.
	clock.Advance(2 * time.Minute)
	proxyGet(t, p, "http://down.example/")
	if ct.calls() != calls+1 {
		t.Fatalf("attempts = %d one cooldown after the failed probe, want %d (a second probe)", ct.calls(), calls+1)
	}
}

// TestJitterConcurrentDraws draws backoff jitter from 8 goroutines at once:
// under -race it proves the jitter source takes its own lock.
func TestJitterConcurrentDraws(t *testing.T) {
	p := New(Config{}, constScorer(0))
	const d = 100 * time.Millisecond
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if j := p.jitter(d); j < d/2 || j > d {
					t.Errorf("jitter(%v) = %v, want within [%v, %v]", d, j, d/2, d)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// hostRoutedTransport fails for one host and succeeds for everything
// else, to prove breaker isolation.
type hostRoutedTransport struct{ failHost string }

func (ht hostRoutedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.EqualFold(r.URL.Hostname(), ht.failHost) {
		return nil, fmt.Errorf("connection refused")
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"text/html"}},
		Body:       io.NopCloser(strings.NewReader("ok")),
		Request:    r,
	}, nil
}

// TestCircuitBreakerPerHost pins that one broken upstream never opens the
// circuit for healthy ones.
func TestCircuitBreakerPerHost(t *testing.T) {
	clock := &fakeClock{t: time.Date(2016, 7, 10, 12, 0, 0, 0, time.UTC)}
	cfg := breakerConfig(hostRoutedTransport{failHost: "down.example"}, clock)
	cfg.BreakerThreshold = 1
	p := New(cfg, constScorer(0))

	proxyGet(t, p, "http://down.example/") // trips immediately
	if w := proxyGet(t, p, "http://down.example/"); w.Code != http.StatusBadGateway {
		t.Fatalf("broken host status = %d, want 502", w.Code)
	}
	if w := proxyGet(t, p, "http://up.example/"); w.Code != http.StatusOK {
		t.Fatalf("healthy host status = %d, want 200", w.Code)
	}
	st := p.Stats()
	if st.BreakerTrips != 1 || st.BreakerRejected != 1 || st.Relayed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStatsConservation pins the accounting identity across every
// terminal outcome the handler has.
func TestStatsConservation(t *testing.T) {
	clock := &fakeClock{t: time.Date(2016, 7, 10, 12, 0, 0, 0, time.UTC)}
	cfg := breakerConfig(hostRoutedTransport{failHost: "down.example"}, clock)
	cfg.BreakerThreshold = 2
	p := New(cfg, constScorer(0))

	proxyGet(t, p, "http://up.example/")   // relayed
	proxyGet(t, p, "http://down.example/") // upstream error
	proxyGet(t, p, "http://down.example/") // upstream error, trips breaker
	proxyGet(t, p, "http://down.example/") // breaker rejected
	// CONNECT: bad request.
	r := httptest.NewRequest(http.MethodConnect, "http://secure.example:443/", nil)
	r.RemoteAddr = "192.0.2.10:4444"
	p.ServeHTTP(httptest.NewRecorder(), r)

	st := p.Stats()
	sum := st.Relayed + st.Refused + st.UpstreamErrors + st.BreakerRejected + st.BadRequests
	if st.Requests != 5 || sum != st.Requests {
		t.Fatalf("conservation violated: Requests=%d, sum of outcomes=%d (%+v)", st.Requests, sum, st)
	}
}
