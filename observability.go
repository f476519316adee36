package dynaminer

import (
	"io"
	"net/http"
	"time"

	"dynaminer/internal/obs"
)

// Re-exported observability types (see internal/obs and DESIGN.md §10).
type (
	// MetricsRegistry holds named metrics; pass one as
	// MonitorConfig.Metrics to share a registry across instances, or let
	// each Monitor own a private one.
	MetricsRegistry = obs.Registry
	// MetricSnapshot is one metric's point-in-time value, as served by
	// the admin /snapshot endpoint.
	MetricSnapshot = obs.MetricSnapshot
	// Journal is the append-only JSONL alert provenance sink; pass one as
	// MonitorConfig.Journal.
	Journal = obs.Journal
	// AlertRecord is one journal line: everything the classifier knew
	// when it raised an alert.
	AlertRecord = obs.AlertRecord
	// JournalConfig tunes journal durability (fsync policy) and rotation;
	// the zero value preserves NewJournal's historical behavior.
	JournalConfig = obs.JournalConfig
	// AdminServer serves the observability endpoints: Prometheus
	// /metrics, /healthz, a JSON /snapshot, and /debug/pprof/.
	AdminServer = obs.Admin
	// AdminOptions extends the admin surface: extra endpoints, a
	// readiness source for /healthz, and a tracer for /trace.
	AdminOptions = obs.AdminOptions
	// Tracer records per-transaction span trees across the wire path —
	// feature extraction, scoring, journaling — into a fixed-size ring,
	// keeping every Nth transaction's tree and every alert-raising
	// transaction's. See DESIGN.md §14.
	Tracer = obs.Tracer
	// TraceSnapshot is one exported trace: its ID, why it was kept
	// (sampled, alert), and its span tree.
	TraceSnapshot = obs.TraceSnapshot
	// HealthStatus is the /healthz readiness report: ready, quarantined
	// and the serving model generation.
	HealthStatus = obs.HealthStatus
	// RuntimeCollector publishes process health telemetry (goroutines,
	// heap, GC pause and scheduler-latency quantiles) as registry gauges.
	RuntimeCollector = obs.RuntimeCollector
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// StartAdmin serves the observability endpoints for reg on addr, plus
// what opts adds: extra endpoints (e.g. ReloadHandlers; they never shadow
// the built-in ones), a readiness source for /healthz (JSON conditions,
// 503 while any holds) and a tracer for /trace. While the server runs, a
// runtime health collector refreshes process gauges on reg.
// Monitor.StartAdmin is the usual entry point; this form serves a Proxy's
// registry. Nothing listens unless this is called.
func StartAdmin(addr string, reg *MetricsRegistry, opts AdminOptions) (*AdminServer, error) {
	return obs.StartAdmin(addr, reg, opts)
}

// NewTracer returns a pipeline tracer that keeps the span tree of every
// sample-th transaction (0: none by sampling) and of every alert-raising
// one, registering its stage histograms and self-telemetry on reg (nil
// selects a private registry). Pass it as MonitorConfig.Tracer /
// ProxyConfig.Detector.Tracer; a Monitor's capture path also observes
// its pcap.reassemble stage.
func NewTracer(reg *MetricsRegistry, sample int) *Tracer { return obs.NewTracer(reg, sample) }

// TraceHandler serves a tracer's ring over HTTP: Chrome trace-event JSON
// (load it in chrome://tracing or Perfetto), or with ?id=N one trace.
// Monitor.StartAdmin mounts it on /trace automatically when the monitor
// has a tracer.
func TraceHandler(t *Tracer) http.Handler { return obs.TraceHandler(t) }

// StartRuntimeCollector publishes runtime health telemetry on reg,
// refreshed every interval (zero selects 10s) until Close. Monitor and
// proxy admin servers run one automatically; this standalone form suits
// deployments without an admin listener.
func StartRuntimeCollector(reg *MetricsRegistry, interval time.Duration) *RuntimeCollector {
	return obs.StartRuntimeCollector(reg, interval)
}

// NewJournal opens (creating, append-mode) a JSONL alert journal file.
func NewJournal(path string) (*Journal, error) { return obs.NewJournal(path) }

// NewJournalWith opens a JSONL alert journal file with an explicit
// durability and rotation policy.
func NewJournalWith(path string, cfg JournalConfig) (*Journal, error) {
	return obs.NewJournalWith(path, cfg)
}

// ReadJournal decodes a JSONL alert journal stream.
func ReadJournal(r io.Reader) ([]AlertRecord, error) { return obs.ReadJournal(r) }

// ReadJournalFile decodes a JSONL alert journal by path.
func ReadJournalFile(path string) ([]AlertRecord, error) { return obs.ReadJournalFile(path) }
