package proxy

import "dynaminer/internal/obs"

// proxyMetrics binds one Proxy to the observability registry of the
// detection engine it serves. The counters are atomic, so the hot
// path increments them without taking p.mu; Stats() is a bridged view
// over the same counters.
type proxyMetrics struct {
	requests        *obs.Counter
	relayed         *obs.Counter
	blockedClients  *obs.Counter
	refused         *obs.Counter
	upstreamErrors  *obs.Counter
	alerts          *obs.Counter
	retries         *obs.Counter
	badRequests     *obs.Counter
	breakerRejected *obs.Counter
	breakerTrips    *obs.Counter

	// relay is the upstream round-trip latency of relayed exchanges,
	// measured between the clock reads the handler already makes (so
	// instrumentation adds no clock calls to the request path).
	relay *obs.Histogram
	// breakerState tracks each failing upstream host's circuit:
	// 0 closed-but-failing, 1 open, 2 probing. Children exist only while
	// the host has a breaker entry and are deleted when it heals, exactly
	// mirroring the breaker map.
	breakerState *obs.GaugeVec
}

func newProxyMetrics(reg *obs.Registry) *proxyMetrics {
	return &proxyMetrics{
		requests:        reg.Counter("dynaminer_proxy_requests_total", "Proxied requests received."),
		relayed:         reg.Counter("dynaminer_proxy_relayed_total", "Requests relayed upstream and answered."),
		blockedClients:  reg.Counter("dynaminer_proxy_blocked_clients_total", "Clients whose sessions were terminated after an alert."),
		refused:         reg.Counter("dynaminer_proxy_refused_total", "Requests refused because their client is blocked."),
		upstreamErrors:  reg.Counter("dynaminer_proxy_upstream_errors_total", "Exchanges failed against the upstream after retries."),
		alerts:          reg.Counter("dynaminer_proxy_alerts_total", "Alerts raised on proxied traffic."),
		retries:         reg.Counter("dynaminer_proxy_retries_total", "Idempotent requests re-sent after a retryable failure."),
		badRequests:     reg.Counter("dynaminer_proxy_bad_requests_total", "Requests refused outright (CONNECT, no usable target)."),
		breakerRejected: reg.Counter("dynaminer_proxy_breaker_rejected_total", "Requests answered 502 because their upstream circuit was open."),
		breakerTrips:    reg.Counter("dynaminer_proxy_breaker_trips_total", "Circuit transitions to open, failed probes included."),
		relay: reg.Histogram("dynaminer_proxy_relay_seconds",
			"Upstream round-trip latency of relayed exchanges (request sent to response headers received).",
			obs.LatencyBuckets),
		breakerState: reg.GaugeVec("dynaminer_proxy_breaker_state_total",
			"Circuit state per failing upstream host: 0 closed-but-failing, 1 open, 2 probing.",
			"host"),
	}
}

// proxyStages holds the interned trace stage IDs for the proxy's share
// of a request's span tree (the detector's spans nest under
// proxy.request via ProcessTraced).
type proxyStages struct {
	request  obs.StageID
	upstream obs.StageID
	relay    obs.StageID
}

func newProxyStages(t *obs.Tracer) proxyStages {
	return proxyStages{
		request:  t.Stage("proxy.request"),
		upstream: t.Stage("proxy.upstream"),
		relay:    t.Stage("proxy.relay"),
	}
}
