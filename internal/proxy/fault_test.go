package proxy

import (
	"context"
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
	return proxyDo(t, p, httptest.NewRequest(http.MethodGet, rawurl, nil))
}

// proxyPost sends a POST, which the proxy never retries: one request is
// one upstream attempt.
func proxyPost(t *testing.T, p *Proxy, rawurl string) *httptest.ResponseRecorder {
	t.Helper()
	return proxyDo(t, p, httptest.NewRequest(http.MethodPost, rawurl, strings.NewReader("a=1")))
}

// proxyGetWithin sends a GET whose inbound context expires after d.
func proxyGetWithin(t *testing.T, p *Proxy, rawurl string, d time.Duration) *httptest.ResponseRecorder {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return proxyDo(t, p, httptest.NewRequest(http.MethodGet, rawurl, nil).WithContext(ctx))
}

func proxyDo(t *testing.T, p *Proxy, r *http.Request) *httptest.ResponseRecorder {
	t.Helper()
	r.RemoteAddr = "192.0.2.10:4444"
	w := httptest.NewRecorder()
	p.ServeHTTP(w, r)
	return w
}

// TestProxyUpstreamTimeout is the regression for the unbounded zero-value
// transport: a never-responding upstream must surface as a 504 when the
// exchange's deadline passes (+1s of slack), not pin the handler forever.
// The inbound request's own 150 ms deadline is the one that binds.
func TestProxyUpstreamTimeout(t *testing.T) {
	p := New(Config{Transport: hungTransport{}}, constScorer(0))
	start := time.Now()
	w := proxyGetWithin(t, p, "http://silent.example/", 150*time.Millisecond)
	elapsed := time.Since(start)
	if elapsed > 150*time.Millisecond+time.Second {
		t.Fatalf("handler took %v, want under its deadline+1s", elapsed)
	}
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
	if st := p.Stats(); st.UpstreamErrors != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want UpstreamErrors=1 and no retries of a timeout", st)
	}
}

// deadlineTransport records the deadline of each upstream request's
// context, and when it was read.
type deadlineTransport struct {
	deadline, at time.Time
	ok           bool
}

func (dt *deadlineTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	dt.at = time.Now()
	dt.deadline, dt.ok = r.Context().Deadline()
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"text/html"}},
		Body:       io.NopCloser(strings.NewReader("<html>ok</html>")),
		Request:    r,
	}, nil
}

// TestUpstreamDeadlineDefault pins the 30 s exchange bound: an inbound
// request with no deadline reaches the upstream with one at most 30 s
// away.
func TestUpstreamDeadlineDefault(t *testing.T) {
	dt := &deadlineTransport{}
	p := New(Config{Transport: dt}, constScorer(0))
	start := time.Now()
	if w := proxyGet(t, p, "http://origin.example/"); w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", w.Code)
	}
	if !dt.ok {
		t.Fatal("the upstream request carries no deadline")
	}
	if left := dt.deadline.Sub(dt.at); left > 30*time.Second {
		t.Fatalf("upstream deadline %v away, want at most 30s", left)
	}
	if set := dt.deadline.Sub(start); set < 30*time.Second {
		t.Fatalf("upstream deadline %v after the request began, want 30s", set)
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
	p := New(Config{Transport: slowLorisTransport{}}, constScorer(0))
	start := time.Now()
	w := proxyGetWithin(t, p, "http://loris.example/", 150*time.Millisecond)
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond+time.Second {
		t.Fatalf("handler took %v, want under its deadline+1s", elapsed)
	}
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
	if st := p.Stats(); st.UpstreamErrors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestProxyRetriesTransientFailures pins the retry budget of a GET: two
// connection resets followed by a success relay the page and cost two
// retries, backing off 50–100 ms and then 100–200 ms; a third reset is
// the last attempt, answered with a 502.
func TestProxyRetriesTransientFailures(t *testing.T) {
	ct := &countingTransport{fail: []bool{true, true}}
	var slept []time.Duration
	p := New(Config{Transport: ct, Sleep: func(d time.Duration) { slept = append(slept, d) }}, constScorer(0))
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
	if len(slept) != 2 || slept[0] < 50*time.Millisecond || slept[0] > 100*time.Millisecond ||
		slept[1] < 100*time.Millisecond || slept[1] > 200*time.Millisecond {
		t.Fatalf("backoffs %v, want one in [50ms, 100ms] then one in [100ms, 200ms]", slept)
	}

	ct = &countingTransport{fail: []bool{true, true, true, true}}
	p = New(Config{Transport: ct, Sleep: noSleep}, constScorer(0))
	if w := proxyGet(t, p, "http://down.example/"); w.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502 once the retries are spent", w.Code)
	}
	if ct.calls() != 3 {
		t.Fatalf("attempts = %d, want exactly 3", ct.calls())
	}
	if st := p.Stats(); st.Retries != 2 || st.UpstreamErrors != 1 {
		t.Fatalf("stats = %+v, want Retries=2 UpstreamErrors=1", st)
	}
}

// TestProxyDoesNotRetryPOST pins idempotency gating: a POST whose body
// was already consumed by the failed attempt is never re-sent.
func TestProxyDoesNotRetryPOST(t *testing.T) {
	ct := &countingTransport{fail: []bool{true, true, true}}
	p := New(Config{Transport: ct, Sleep: noSleep}, constScorer(0))
	w := proxyPost(t, p, "http://flaky.example/submit")
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
// tests: injected clock, no real sleeps.
func breakerConfig(transport http.RoundTripper, clock *fakeClock) Config {
	return Config{Transport: transport, Now: clock.Now, Sleep: noSleep}
}

// TestCircuitBreakerOpensAndRecovers walks the circuit through its full
// life: the 5th consecutive failure opens it, an open circuit serves
// synthesized 502s without touching the upstream, 30 s on the frozen
// clock admit one probe, and a successful probe closes the circuit
// again. POSTs keep one request to one upstream attempt.
func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	clock := &fakeClock{t: time.Date(2016, 7, 10, 12, 0, 0, 0, time.UTC), frozen: true}
	opened := clock.t
	ct := &countingTransport{fail: []bool{true, true, true, true, true}} // then healthy
	p := New(breakerConfig(ct, clock), constScorer(0))

	for i := 1; i <= 5; i++ {
		if w := proxyPost(t, p, "http://down.example/"); w.Code != http.StatusBadGateway {
			t.Fatalf("failure %d: status = %d, want 502", i, w.Code)
		}
		if trips := p.Stats().BreakerTrips; (trips == 1) != (i == 5) {
			t.Fatalf("after %d failures: BreakerTrips = %d, want the 5th to open the circuit", i, trips)
		}
	}
	if st := p.Stats(); st.UpstreamErrors != 5 {
		t.Fatalf("stats = %+v, want UpstreamErrors=5", st)
	}

	// Open: the upstream is not contacted, up to the last nanosecond of
	// the cooldown.
	for _, step := range []time.Duration{0, 30*time.Second - time.Nanosecond} {
		clock.Advance(step)
		if w := proxyPost(t, p, "http://down.example/"); w.Code != http.StatusBadGateway {
			t.Fatalf("open-circuit status %v after opening = %d, want 502", clock.Now().Sub(opened), w.Code)
		}
	}
	if ct.calls() != 5 {
		t.Fatalf("attempts = %d while open, want 5 (no new contact)", ct.calls())
	}
	if st := p.Stats(); st.BreakerRejected != 2 {
		t.Fatalf("stats = %+v, want BreakerRejected=2", st)
	}

	// At 30 s a single probe goes through; the upstream has recovered, so
	// the circuit closes and traffic flows again.
	clock.Advance(time.Nanosecond)
	if w := proxyPost(t, p, "http://down.example/"); w.Code != http.StatusOK {
		t.Fatalf("probe status = %d, want 200", w.Code)
	}
	if w := proxyPost(t, p, "http://down.example/"); w.Code != http.StatusOK {
		t.Fatalf("post-recovery status = %d, want 200", w.Code)
	}
	if st := p.Stats(); st.Relayed != 2 || st.BreakerRejected != 2 {
		t.Fatalf("stats = %+v, want Relayed=2 after recovery", st)
	}
}

// TestCircuitBreakerFailedProbeReopens pins the probe-failure edge: the
// half-open probe failing re-opens the circuit and restarts the cooldown.
func TestCircuitBreakerFailedProbeReopens(t *testing.T) {
	clock := &fakeClock{t: time.Date(2016, 7, 10, 12, 0, 0, 0, time.UTC), frozen: true}
	ct := &countingTransport{fail: []bool{true, true, true, true, true, true}} // probe fails too
	p := New(breakerConfig(ct, clock), constScorer(0))

	for i := 0; i < 5; i++ {
		proxyPost(t, p, "http://down.example/")
	}
	clock.Advance(30 * time.Second)
	if w := proxyPost(t, p, "http://down.example/"); w.Code != http.StatusBadGateway {
		t.Fatalf("probe status = %d, want 502", w.Code)
	}
	st := p.Stats()
	if st.BreakerTrips != 2 {
		t.Fatalf("stats = %+v, want BreakerTrips=2 (initial + failed probe)", st)
	}
	// Re-opened: rejected again without contact.
	calls := ct.calls()
	if w := proxyPost(t, p, "http://down.example/"); w.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", w.Code)
	}
	if ct.calls() != calls {
		t.Fatal("re-opened circuit contacted the upstream")
	}
	// The cooldown restarts at the failed probe, by the injected clock:
	// one more cooldown admits a second probe.
	clock.Advance(30 * time.Second)
	proxyPost(t, p, "http://down.example/")
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
	p := New(breakerConfig(hostRoutedTransport{failHost: "down.example"}, clock), constScorer(0))

	for i := 0; i < 5; i++ {
		proxyGet(t, p, "http://down.example/") // the 5th trips the circuit
	}
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
	p := New(breakerConfig(hostRoutedTransport{failHost: "down.example"}, clock), constScorer(0))

	proxyGet(t, p, "http://up.example/") // relayed
	for i := 0; i < 5; i++ {
		proxyGet(t, p, "http://down.example/") // upstream error; the 5th trips the breaker
	}
	proxyGet(t, p, "http://down.example/") // breaker rejected
	// CONNECT: bad request.
	r := httptest.NewRequest(http.MethodConnect, "http://secure.example:443/", nil)
	r.RemoteAddr = "192.0.2.10:4444"
	p.ServeHTTP(httptest.NewRecorder(), r)

	st := p.Stats()
	sum := st.Relayed + st.Refused + st.UpstreamErrors + st.BreakerRejected + st.BadRequests
	if st.Requests != 8 || sum != st.Requests {
		t.Fatalf("conservation violated: Requests=%d, sum of outcomes=%d (%+v)", st.Requests, sum, st)
	}
}
