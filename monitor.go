package dynaminer

import (
	"io"
	"sync"
	"time"

	"dynaminer/internal/detector"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
	"dynaminer/internal/proxy"
)

// Monitor is the on-the-wire detection engine (the paper's Stage 2): it
// consumes live HTTP transactions, infers infection clues, builds
// potential-infection WCGs, and re-classifies them as they grow. The
// engine is sharded by client IP (MonitorConfig.Shards, default
// GOMAXPROCS), so Monitor is safe for concurrent use and distinct clients
// classify in parallel; per-client results are shard-count independent.
type Monitor struct {
	engine *detector.Engine
	now    func() time.Time

	// tracer is the pipeline tracer from MonitorConfig (nil when tracing
	// is off); StartAdmin mounts /trace from it.
	tracer *obs.Tracer

	// journal is the alert sink from MonitorConfig, kept so Shutdown can
	// force it to stable storage during a graceful drain.
	journal *obs.Journal

	// Janitor and checkpoint telemetry on the engine's registry.
	janitorSweeps      *obs.Counter
	janitorEvictions   *obs.Counter
	checkpoints        *obs.Counter
	checkpointFailures *obs.Counter
	// The capture path's counters and stage binding, on the engine's
	// registry and tracer, and the transactions ScanPCAP delivered out of
	// request-time order.
	capture *httpstream.Telemetry
	lateTxs *obs.Counter

	mu             sync.Mutex
	stop           chan struct{} // non-nil while the janitor is running; guarded by mu
	done           chan struct{} // closed when the janitor goroutine exits; guarded by mu
	admin          *obs.Admin    // non-nil while the admin server runs; guarded by mu
	modelPath      string        // default reload artifact; guarded by mu
	checkpointPath string        // periodic checkpoint target; guarded by mu
	ckptStop       chan struct{} // non-nil while the checkpointer runs; guarded by mu
	ckptDone       chan struct{} // closed when the checkpointer exits; guarded by mu
}

// NewMonitor wraps a trained classifier in a streaming engine.
func NewMonitor(cfg MonitorConfig, c *Classifier) *Monitor {
	if cfg.TrustedVendors == nil {
		cfg.TrustedVendors = detector.DefaultTrustedVendors
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	engine := detector.New(cfg, c.scorer())
	reg := engine.Registry()
	return &Monitor{
		engine:  engine,
		now:     now,
		tracer:  cfg.Tracer,
		journal: cfg.Journal,
		janitorSweeps: reg.Counter("dynaminer_janitor_sweeps_total",
			"Background janitor sweeps run."),
		janitorEvictions: reg.Counter("dynaminer_janitor_evictions_total",
			"Session clusters evicted by the background janitor."),
		checkpoints: reg.Counter("dynaminer_checkpoints_total",
			"Watch-state checkpoints written successfully."),
		checkpointFailures: reg.Counter("dynaminer_checkpoint_failures_total",
			"Watch-state checkpoint writes that failed."),
		capture: httpstream.NewTelemetry(reg, cfg.Tracer),
		lateTxs: reg.Counter("dynaminer_capture_late_transactions_total",
			"Capture transactions delivered to the engine after a later one, because the capture is not time-ordered."),
	}
}

// Registry returns the observability registry the monitor's engine
// metrics live on — the one MonitorConfig.Metrics supplied, or the
// monitor's private registry. StartAdmin exposes it over HTTP.
func (m *Monitor) Registry() *obs.Registry { return m.engine.Registry() }

// StartAdmin serves the observability endpoints — Prometheus /metrics,
// the /healthz readiness report (JSON, 503 while any cluster is
// quarantined), a JSON /snapshot, /debug/pprof/, /trace when
// the monitor has a tracer, and the model-lifecycle controls POST
// /reload and POST /rollback (see ReloadHandlers) — on addr, exposing
// the monitor's registry. A runtime health collector refreshes process
// gauges while the server runs. It returns the bound address (useful with
// ":0"). Nothing listens unless this is called; Close shuts the server
// down.
func (m *Monitor) StartAdmin(addr string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.admin != nil {
		return m.admin.Addr(), nil
	}
	admin, err := obs.StartAdmin(addr, m.engine.Registry(), obs.AdminOptions{
		Extra:  ReloadHandlers(m, m.ModelPath),
		Health: m.engine.Health,
		Tracer: m.tracer,
	})
	if err != nil {
		return "", err
	}
	m.admin = admin
	return admin.Addr(), nil
}

// Health reports the engine's readiness, quarantined when any shard is;
// /healthz serves the same report.
func (m *Monitor) Health() HealthStatus { return m.engine.Health() }

// StartJanitor launches a background sweeper that evicts session clusters
// idle for more than the engine's one-hour TTL by MonitorConfig.Now every
// interval (zero selects one minute), so memory stays
// bounded even while no traffic arrives to trigger the inline eviction in
// Process. Starting an already-running janitor is a no-op. Stop it with
// Close.
func (m *Monitor) StartJanitor(interval time.Duration) {
	if interval <= 0 {
		interval = time.Minute
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	m.stop, m.done = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				func() {
					// Last-resort guard, per sweep: a janitor fault must
					// never take the process down, nor end later sweeps.
					defer func() { recover() }()
					n := m.engine.EvictExpired(m.now())
					m.janitorSweeps.Inc()
					m.janitorEvictions.Add(int64(n))
				}()
			}
		}
	}()
}

// Close stops the background janitor, the background checkpointer and
// the admin server, whichever are running, and waits for them to exit.
// It is safe to call multiple times and on monitors that never started
// any of them. (Shutdown additionally writes a final checkpoint and
// syncs the journal.)
func (m *Monitor) Close() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	ckptStop, ckptDone := m.ckptStop, m.ckptDone
	admin := m.admin
	m.stop, m.done, m.admin = nil, nil, nil
	m.ckptStop, m.ckptDone = nil, nil
	m.mu.Unlock()
	if admin != nil {
		admin.Close()
	}
	if ckptStop != nil {
		close(ckptStop)
		<-ckptDone
	}
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Process ingests one transaction and returns any alerts it triggers.
func (m *Monitor) Process(tx Transaction) []Alert { return m.engine.Process(tx) }

// ProcessAll moves a transaction slab through the engine: one worker per
// shard takes its shard's share in slab order, shards run concurrently,
// and alerts come back in input order — bit-identical to calling Process
// per transaction.
func (m *Monitor) ProcessAll(txs []Transaction) []Alert { return m.engine.ProcessAll(txs) }

// ScanPCAP parses a capture stream — classic pcap or pcapng, detected from
// the magic — through the full pipeline (packet decode, TCP reassembly,
// HTTP pairing) and hands fn each transaction as soon as no open or later
// conversation can yield an earlier one, while the capture is still being
// read; the pointer is valid only during the call. The capture is never
// held whole: each TCP conversation is parsed as it closes. On a
// time-ordered capture the transactions arrive in request-time order; late
// counts those that arrived after a later one, and so does
// dynaminer_capture_late_transactions_total. The monitor's registry and
// tracer count the scan (the dynaminer_httpstream_* series and the
// pcap.reassemble and httpstream.parse stages). On a read error the
// transactions already handed over stay handed over.
func (m *Monitor) ScanPCAP(r io.Reader, fn func(*Transaction)) (late int, err error) {
	late, err = httpstream.ScanCapture(r, m.capture, fn)
	m.lateTxs.Add(int64(late))
	return late, err
}

// ProcessPCAP replays a capture through the engine, as in the forensic
// case study, and returns its alerts in transaction order. The capture is
// classified while it is still being read: each transaction goes to its
// shard's worker as soon as ScanPCAP releases it, so alerts are journaled
// long before the capture ends. When the capture fails mid-read, the
// transactions released before the failure have already been classified
// and journaled: ProcessPCAP returns their alerts beside the error.
func (m *Monitor) ProcessPCAP(r io.Reader) ([]Alert, error) {
	return m.engine.ProcessFeed(func(deliver func(*Transaction)) error {
		_, err := m.ScanPCAP(r, deliver)
		return err
	})
}

// Stats returns a snapshot of engine counters, aggregated across shards.
func (m *Monitor) Stats() MonitorStats { return m.engine.Stats() }

// Watched returns snapshots of every potential-infection WCG currently
// being grown and re-classified, across all shards.
func (m *Monitor) Watched() []WatchedWCG { return m.engine.Watched() }

// ProxyConfig tunes the forward-proxy deployment (see NewProxy).
type ProxyConfig = proxy.Config

// ProxyStats counts proxy activity.
type ProxyStats = proxy.Stats

// Proxy is a detecting forward HTTP proxy: the paper's live deployment
// mode, where DynaMiner "sits at the edge of a network or as a web proxy".
type Proxy = proxy.Proxy

// NewProxy wraps a trained classifier in a forward HTTP proxy that relays
// traffic, detects infections on the wire, and (optionally) terminates the
// web sessions of alerted clients. Serve it with http.ListenAndServe and
// point browsers at it as their HTTP proxy.
func NewProxy(cfg ProxyConfig, c *Classifier) *Proxy {
	if cfg.Detector.TrustedVendors == nil {
		cfg.Detector.TrustedVendors = detector.DefaultTrustedVendors
	}
	return proxy.New(cfg, c.scorer())
}
