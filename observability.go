package dynaminer

import (
	"io"

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
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns a pipeline tracer that keeps the span tree of every
// sample-th transaction (0: none by sampling) and of every alert-raising
// one, registering its stage histograms and self-telemetry on reg (nil
// selects a private registry). Every unit a stage sees is observed,
// whatever the sampling keeps. Pass it as MonitorConfig.Tracer: the
// Monitor's engine, its capture path (the pcap.reassemble and
// httpstream.parse stages) and a Proxy in front of it all record into
// it, and its clock is the only one they read for latency.
func NewTracer(reg *MetricsRegistry, sample int) *Tracer { return obs.NewTracer(reg, sample) }

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
