// Package proxy deploys DynaMiner the way the paper's live case study does
// (Section VI-D): as a forward HTTP web proxy that relays every
// request/response pair, feeds it to an on-the-wire detection engine, and
// terminates the sessions of clients whose conversations are deemed
// infectious. The proxy is a request front-end only: the engine it serves,
// and that engine's model, checkpoints and admin surface, belong to its
// owner.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"time"

	"dynaminer/internal/detector"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
)

// maxCapturedBody bounds how much response body is buffered for analysis;
// the remainder streams through uninspected (payload-agnostic analysis
// needs sizes and document prefixes, not full binaries).
const maxCapturedBody = 256 << 10

// The proxy's relay bounds. They are implementation constants: the
// deployment tunes the engine's clue threshold, not these.
const (
	// blockDuration is how long an alerted client stays blocked when
	// Config.BlockAfterAlert is set.
	blockDuration = 10 * time.Minute
	// upstreamTimeout bounds one upstream exchange end to end: the round
	// trip, buffering the analysis prefix of the body, and relaying the
	// tail. A hung upstream or a slow-loris body surfaces as a 504 within
	// this deadline instead of pinning the handler forever. An inbound
	// request whose context ends sooner keeps its own deadline.
	upstreamTimeout = 30 * time.Second
	// upstreamRetries is how many extra attempts an idempotent (GET/HEAD,
	// bodyless) request gets after a retryable transport failure, within
	// the same deadline. Timeouts are never retried: the budget is
	// already spent.
	upstreamRetries = 2
	// retryBackoff is the base of the jittered exponential backoff
	// between retries (doubles per attempt, jittered to 50–100% of the
	// step).
	retryBackoff = 100 * time.Millisecond
	// breakerThreshold is how many consecutive transport failures to one
	// upstream host open its circuit: while open, requests for that host
	// are answered with a synthesized 502 without touching the upstream.
	breakerThreshold = 5
	// breakerCooldown is how long an open circuit refuses traffic before
	// letting a single probe request test the upstream.
	breakerCooldown = 30 * time.Second
)

// Config tunes the proxy.
type Config struct {
	// BlockAfterAlert terminates the offending client's web session: once
	// a client alerts, its requests are refused with 403 for ten minutes.
	BlockAfterAlert bool
	// OnAlert, when set, is invoked synchronously for every alert.
	OnAlert func(detector.Alert)
	// Transport performs the upstream requests; nil selects
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Now supplies time for block expiry, circuit-breaker cooldowns and
	// upstream timing; nil selects time.Now. Tests inject a fake clock.
	Now func() time.Time
	// TrustXForwardedFor attributes traffic to the first X-Forwarded-For
	// address instead of the TCP peer. Enable only when an upstream
	// load balancer or proxy chain sets the header trustworthily.
	TrustXForwardedFor bool
	// Sleep pauses between retry attempts; nil selects time.Sleep. Tests
	// inject a no-op to run fault schedules without real delays.
	Sleep func(time.Duration)
}

// Stats counts proxy activity. Every request lands in exactly one of
// Relayed, Refused, UpstreamErrors, BreakerRejected or BadRequests, so
// Requests always equals their sum — the conservation identity the chaos
// soak asserts.
type Stats struct {
	Requests       int
	Relayed        int
	BlockedClients int
	Refused        int
	// UpstreamErrors counts exchanges that failed against the upstream
	// after exhausting any retries: transport errors, timeouts, and body
	// reads that died while buffering the analysis prefix.
	UpstreamErrors int
	Alerts         int
	// Retries counts re-sent idempotent requests (not terminal outcomes;
	// a request that eventually succeeds after 2 retries adds 2 here and
	// 1 to Relayed).
	Retries int
	// BadRequests counts requests the proxy refused to relay at all:
	// CONNECT tunnels and requests with no usable target.
	BadRequests int
	// BreakerRejected counts requests answered with a synthesized 502
	// because their upstream's circuit was open.
	BreakerRejected int
	// BreakerTrips counts circuit transitions to open (including a failed
	// half-open probe re-opening).
	BreakerTrips int
}

// Proxy is an http.Handler implementing a detecting forward proxy. Safe
// for concurrent use: detection runs on a sharded engine whose per-client
// shard locks let distinct clients classify in parallel, while p.mu guards
// only the blocklist and the circuit breakers.
type Proxy struct {
	cfg       Config
	transport http.RoundTripper
	now       func() time.Time
	sleep     func(time.Duration)
	engine    *detector.Engine

	// mx backs every Stats counter with metrics on the engine's registry;
	// the atomic counters need no lock.
	mx *proxyMetrics

	// tracer and stg drive per-request pipeline tracing; nil tracer means
	// every span call is a single nil check. The tracer is the engine's,
	// so proxy and detector spans share one trace.
	tracer *obs.Tracer
	stg    proxyStages

	rng lockedRand // retry-backoff jitter

	mu       sync.Mutex
	blocked  map[netip.Addr]time.Time // guarded by mu; client -> block expiry
	breakers map[string]*breaker      // guarded by mu; upstream host -> circuit
}

// lockedRand is a random source behind its own lock: its one method takes
// the lock, so no caller can draw without it.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func (l *lockedRand) int63n(n int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Int63n(n)
}

var _ http.Handler = (*Proxy)(nil)

// New returns a Proxy that feeds every relayed exchange to engine. The
// proxy's counters land on the engine's registry, and its request spans
// on the engine's tracer.
func New(cfg Config, engine *detector.Engine) *Proxy {
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	p := &Proxy{
		cfg:       cfg,
		transport: transport,
		now:       now,
		sleep:     sleep,
		engine:    engine,
		mx:        newProxyMetrics(engine.Registry()),
		tracer:    engine.Tracer(),
		blocked:   make(map[netip.Addr]time.Time),
		breakers:  make(map[string]*breaker),
		rng:       lockedRand{r: rand.New(rand.NewSource(1))},
	}
	if p.tracer != nil {
		p.stg = newProxyStages(p.tracer)
	}
	return p
}

// Stats returns a snapshot of proxy counters — a bridged view over the
// same registry metrics /metrics exports.
func (p *Proxy) Stats() Stats {
	return Stats{
		Requests:        int(p.mx.requests.Value()),
		Relayed:         int(p.mx.relayed.Value()),
		BlockedClients:  int(p.mx.blockedClients.Value()),
		Refused:         int(p.mx.refused.Value()),
		UpstreamErrors:  int(p.mx.upstreamErrors.Value()),
		Alerts:          int(p.mx.alerts.Value()),
		Retries:         int(p.mx.retries.Value()),
		BadRequests:     int(p.mx.badRequests.Value()),
		BreakerRejected: int(p.mx.breakerRejected.Value()),
		BreakerTrips:    int(p.mx.breakerTrips.Value()),
	}
}

// clientAddr extracts the client IP from a request, honoring
// X-Forwarded-For when configured.
func (p *Proxy) clientAddr(r *http.Request) netip.Addr {
	if p.cfg.TrustXForwardedFor {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			first := xff
			if i := strings.IndexByte(first, ','); i >= 0 {
				first = first[:i]
			}
			if addr, err := netip.ParseAddr(strings.TrimSpace(first)); err == nil {
				return addr.Unmap()
			}
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	addr, err := netip.ParseAddr(host)
	if err != nil {
		return netip.Addr{}
	}
	return addr.Unmap()
}

// ServeHTTP relays one proxied request and runs detection on the exchange.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mx.requests.Inc()
	// One trace per proxied request: proxy.request is the root span, the
	// upstream attempts and the client-side relay are children, and the
	// detector's spans nest under it via ProcessTraced. Begin/Finish are
	// nil-safe, so an untraced proxy pays a handful of nil checks.
	at := p.tracer.Begin()
	rs := at.StartSpan(p.stg.request)
	defer func() {
		at.EndSpan(rs)
		p.tracer.Finish(at)
	}()
	client := p.clientAddr(r)
	p.mu.Lock()
	if expiry, ok := p.blocked[client]; ok {
		if p.now().Before(expiry) {
			p.mu.Unlock()
			p.mx.refused.Inc()
			http.Error(w, "session terminated by DynaMiner", http.StatusForbidden)
			return
		}
		delete(p.blocked, client)
	}
	p.mu.Unlock()

	if r.Method == http.MethodConnect {
		// DynaMiner operates on unencrypted HTTP (Section VII); tunneled
		// TLS cannot be inspected and is refused by this deployment.
		p.mx.badRequests.Inc()
		http.Error(w, "CONNECT not supported: DynaMiner inspects plain HTTP", http.StatusMethodNotAllowed)
		return
	}

	// The deadline covers the whole upstream exchange — connecting, the
	// response headers, buffering the analysis prefix, and the tail relay
	// — so neither a hung upstream nor a slow-loris body can pin this
	// handler past upstreamTimeout.
	ctx, cancel := context.WithTimeout(r.Context(), upstreamTimeout)
	defer cancel()
	out, err := p.buildUpstreamRequest(ctx, r)
	if err != nil {
		p.mx.badRequests.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	upstreamHost := strings.ToLower(out.URL.Hostname())
	if !p.breakerAllow(upstreamHost) {
		p.mx.breakerRejected.Inc()
		at.Annotate(rs, obs.SpanBreakerOpen)
		http.Error(w, "upstream circuit open: "+upstreamHost, http.StatusBadGateway)
		return
	}

	reqTime := p.now()
	resp, err := p.roundTrip(out, at)
	if err != nil {
		p.breakerResult(upstreamHost, false)
		p.mx.upstreamErrors.Inc()
		at.Annotate(rs, obs.SpanError)
		code := http.StatusBadGateway
		if isTimeout(err) {
			code = http.StatusGatewayTimeout
		}
		http.Error(w, fmt.Sprintf("upstream: %v", err), code)
		return
	}
	defer resp.Body.Close()
	respTime := p.now()

	// Buffer a prefix of the body for analysis, stream the rest through.
	prefix, rest, err := bufferPrefix(resp.Body, maxCapturedBody)
	if err != nil {
		p.breakerResult(upstreamHost, false)
		p.mx.upstreamErrors.Inc()
		at.Annotate(rs, obs.SpanError)
		code := http.StatusBadGateway
		if isTimeout(err) {
			code = http.StatusGatewayTimeout
		}
		http.Error(w, fmt.Sprintf("upstream body: %v", err), code)
		return
	}
	p.breakerResult(upstreamHost, true)
	ls := at.StartSpan(p.stg.relay)
	relayHdr := resp.Header.Clone()
	removeHopByHop(relayHdr)
	copyHeader(w.Header(), relayHdr)
	w.WriteHeader(resp.StatusCode)
	written, _ := w.Write(prefix)
	tail, _ := io.Copy(w, rest)
	at.EndSpan(ls)

	// Classification runs under the owning shard's lock only, so two
	// clients' exchanges classify concurrently; p.mu guards just the
	// blocklist and counters.
	tx := p.buildTransaction(r, resp, client, reqTime, respTime, prefix, int(tail)+written)
	alerts := p.engine.ProcessTraced(tx, at)
	p.mx.relayed.Inc()
	p.mx.relay.Observe(respTime.Sub(reqTime).Seconds())
	p.mx.alerts.Add(int64(len(alerts)))
	if len(alerts) > 0 && p.cfg.BlockAfterAlert {
		p.mu.Lock()
		if _, already := p.blocked[client]; !already {
			p.mx.blockedClients.Inc()
		}
		p.blocked[client] = p.now().Add(blockDuration)
		p.mu.Unlock()
	}
	if p.cfg.OnAlert != nil {
		for _, a := range alerts {
			p.cfg.OnAlert(a)
		}
	}
}

// roundTrip performs the upstream exchange with bounded, jittered
// exponential-backoff retries. Only idempotent bodyless requests
// (GET/HEAD) are retried — a request body has already been consumed by
// the failed attempt — and only on retryable transport errors; the
// context deadline set by ServeHTTP bounds all attempts together, so
// retries never extend the caller-visible latency past it.
func (p *Proxy) roundTrip(out *http.Request, at *obs.ActiveTrace) (*http.Response, error) {
	retries := 0
	if (out.Method == http.MethodGet || out.Method == http.MethodHead) && out.Body == nil {
		retries = upstreamRetries
	}
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		// One proxy.upstream span per attempt, the attempt number as its
		// Arg; failed attempts are flagged SpanError, re-sent ones also
		// SpanRetried — the span tree shows exactly where a slow exchange
		// spent its retry budget.
		us := at.StartSpan(p.stg.upstream)
		at.SetArg(us, int32(attempt))
		resp, err := p.transport.RoundTrip(out)
		if err == nil || attempt >= retries || !retryable(err) {
			if err != nil {
				at.Annotate(us, obs.SpanError)
			}
			at.EndSpan(us)
			return resp, err
		}
		at.Annotate(us, obs.SpanError|obs.SpanRetried)
		at.EndSpan(us)
		p.mx.retries.Inc()
		p.sleep(p.jitter(backoff))
		backoff *= 2
		if ctxErr := out.Context().Err(); ctxErr != nil {
			return nil, ctxErr
		}
	}
}

// retryable reports whether a transport error is worth a second attempt:
// connection-level failures (refused, reset, broken pipe) are; timeouts
// and cancellations are not, because the deadline budget is shared across
// attempts.
func retryable(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	return true
}

// isTimeout classifies an upstream error as a deadline expiry (504) as
// opposed to a generic relay failure (502).
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// jitter draws a uniform duration in [d/2, d]: full-magnitude backoff
// jitter so synchronized retry storms against a recovering upstream
// spread out.
func (p *Proxy) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(p.rng.int63n(int64(d/2)+1))
}

// buildUpstreamRequest converts the proxied request into an origin request
// carrying the deadline-bearing context.
func (p *Proxy) buildUpstreamRequest(ctx context.Context, r *http.Request) (*http.Request, error) {
	u := *r.URL
	if u.Host == "" {
		u.Host = r.Host
	}
	if u.Scheme == "" {
		u.Scheme = "http"
	}
	if u.Host == "" {
		return nil, fmt.Errorf("proxy: request has no target host")
	}
	// Server-side requests always carry a non-nil Body; normalize the
	// bodyless GET/HEAD case to nil so the retry gate can recognize a
	// replayable request.
	body := io.Reader(r.Body)
	if (r.Method == http.MethodGet || r.Method == http.MethodHead) &&
		r.ContentLength == 0 && len(r.TransferEncoding) == 0 {
		body = nil
	}
	out, err := http.NewRequestWithContext(ctx, r.Method, u.String(), body)
	if err != nil {
		return nil, fmt.Errorf("proxy: build upstream request: %w", err)
	}
	out.Header = r.Header.Clone()
	out.Header.Del("Proxy-Connection")
	removeHopByHop(out.Header)
	return out, nil
}

// hopByHopHeaders are the connection-scoped fields of RFC 7230 §6.1; a
// proxy must consume them rather than forward them, or keep-alive and
// transfer framing negotiated on one hop corrupt the other.
var hopByHopHeaders = []string{
	"Connection",
	"Keep-Alive",
	"Proxy-Authenticate",
	"Proxy-Authorization",
	"TE",
	"Trailer",
	"Transfer-Encoding",
	"Upgrade",
}

// removeHopByHop strips the standard hop-by-hop headers plus any field the
// Connection header names as connection-scoped.
func removeHopByHop(h http.Header) {
	for _, v := range h.Values("Connection") {
		for _, name := range strings.Split(v, ",") {
			if name = strings.TrimSpace(name); name != "" {
				h.Del(name)
			}
		}
	}
	for _, name := range hopByHopHeaders {
		h.Del(name)
	}
}

// bufferPrefix reads up to limit bytes and returns them plus a reader for
// any remainder.
func bufferPrefix(body io.Reader, limit int) ([]byte, io.Reader, error) {
	prefix := make([]byte, 0, 4096)
	buf := make([]byte, 4096)
	for len(prefix) < limit {
		n, err := body.Read(buf)
		prefix = append(prefix, buf[:n]...)
		if err == io.EOF {
			return prefix, emptyReader{}, nil
		}
		if err != nil {
			return prefix, emptyReader{}, err
		}
	}
	return prefix, body, nil
}

type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, io.EOF }

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// buildTransaction assembles the httpstream view of the exchange.
func (p *Proxy) buildTransaction(r *http.Request, resp *http.Response, client netip.Addr, reqTime, respTime time.Time, prefix []byte, totalBody int) httpstream.Transaction {
	host := r.URL.Host
	if host == "" {
		host = r.Host
	}
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	uri := r.URL.RequestURI()
	ctype := resp.Header.Get("Content-Type")
	// Keep what the capture path keeps: a body only where a redirect can
	// hide, at most 64 KiB, and copied out of the relay buffer so the
	// clustered transaction does not pin it.
	var body []byte
	if httpstream.ClassifyPayload(uri, ctype).CarriesRedirects() {
		body = append([]byte(nil), prefix[:min(len(prefix), 64<<10)]...)
	}
	return httpstream.Transaction{
		ClientIP:    client,
		Method:      r.Method,
		URI:         uri,
		Host:        host,
		ReqHdr:      r.Header,
		ReqTime:     reqTime,
		StatusCode:  resp.StatusCode,
		RespHdr:     resp.Header,
		RespTime:    respTime,
		ContentType: ctype,
		BodySize:    totalBody,
		Body:        body,
	}
}
