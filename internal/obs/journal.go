package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// AlertRecord is one line of the alert provenance journal: everything the
// classifier knew at the moment it raised an alert, so the decision can
// be replayed offline. Features is the exact 37-slot vector the forest
// scored and Score the exact ensemble output — JSON encodes finite
// float64s losslessly, so a decoded record is bit-identical to the
// decision-time values.
type AlertRecord struct {
	Time      time.Time `json:"time"`
	Client    string    `json:"client"`
	ClusterID int       `json:"cluster_id"`

	// The arming clue: the redirect chain + payload download that opened
	// the watch this alert came from.
	ClueHost      string `json:"clue_host"`
	CluePayload   string `json:"clue_payload"`
	ClueRedirects int    `json:"clue_redirects"`

	// WCG shape at decision time.
	WCGNodes         int    `json:"wcg_nodes"`
	WCGEdges         int    `json:"wcg_edges"`
	WCGStructVersion uint64 `json:"wcg_struct_version"`
	// Incremental is false when this decision came from a from-scratch
	// rebuild (DisableIncremental or a quarantine pin).
	Incremental bool `json:"incremental"`

	// ModelVersion identifies the exact forest that scored this alert
	// ("g<generation>-<blob crc>", see detector.ModelVersion): the watch's
	// pinned model, which may differ from the serving model after a
	// hot-swap. Re-scoring Features with that forest reproduces Score
	// bit-for-bit across processes and machines.
	ModelVersion string `json:"model_version,omitempty"`

	// The decision itself.
	Features  []float64 `json:"features"`
	Score     float64   `json:"score"`
	Threshold float64   `json:"threshold"`
	// Votes/Trees are the per-tree tally when the scorer exposes one
	// (ml.FlatForest does): Votes trees of Trees put the infection class
	// above 0.5.
	Votes int `json:"votes,omitempty"`
	Trees int `json:"trees,omitempty"`

	// Quarantined is set when the decision came from a cluster with a
	// quarantine strike (its classifications rebuild from scratch).
	Quarantined bool `json:"quarantined,omitempty"`

	// TraceID links this alert to its captured span tree: alert-raising
	// transactions are always-keep promoted into the trace ring, so the
	// id resolves via Tracer.Find or the /trace?id= admin endpoint while
	// the trace is in the ring. Zero when tracing is disabled.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// JournalConfig tunes journal durability and rotation. The zero value
// preserves the historical behavior: every record is one unbuffered
// write (the OS has it even on a crash), no fsync is forced, and the
// file grows without bound.
type JournalConfig struct {
	// FsyncEvery forces the journal to stable storage after every N
	// successful appends (1 = every record). Zero disables count-based
	// fsync.
	FsyncEvery int
	// FsyncInterval forces a sync on the first append at least this long
	// after the previous one, bounding how much journal a power loss can
	// take. Zero disables interval-based fsync.
	FsyncInterval time.Duration
	// MaxBytes rotates the journal once the current file exceeds this
	// size: the file is synced and renamed to "<path>.<N>" (N increasing
	// from 1) and a fresh file takes its place. Zero disables rotation.
	MaxBytes int64
	// Now supplies time for interval-based fsync; nil selects the wall
	// clock.
	Now func() time.Time
}

// Journal is an append-only JSONL sink for AlertRecords. Append never
// panics and never blocks detection on malformed records: encode or
// write failures are counted and reported, not thrown. Records are
// written unbuffered (one line, one write), so a crash can tear at most
// the final record — which ReadJournal tolerates — and the configured
// fsync policy bounds what a power loss can lose.
type Journal struct {
	mu     sync.Mutex
	w      io.Writer // guarded by mu
	closer io.Closer // guarded by mu; nil for caller-owned writers

	// Rotation and fsync state; all guarded by mu. path is empty for
	// caller-owned writers, which never rotate.
	path      string
	cfg       JournalConfig
	now       func() time.Time
	size      int64
	sinceSync int
	lastSync  time.Time
	seq       int // next rotation suffix

	writes       Cell // records appended successfully
	drops        Cell // records lost to encode/write errors or panics
	syncs        Cell // fsyncs pushed to stable storage
	syncFailures Cell // fsyncs the sink refused
	rotations    Cell // completed file rotations

	// Registry views published by PublishMetrics; nil until then. All
	// guarded by mu (updated on the append path, which already holds it).
	pubReg       *Registry
	pubRotations *Counter
	pubSize      *Gauge
}

// NewJournal opens (creating, append-mode) a JSONL journal file with the
// zero JournalConfig (write-through, no fsync, no rotation).
func NewJournal(path string) (*Journal, error) {
	return NewJournalWith(path, JournalConfig{})
}

// NewJournalWith opens a JSONL journal file with an explicit durability
// and rotation policy.
func NewJournalWith(path string, cfg JournalConfig) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open journal: %w", err)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	j := &Journal{w: f, closer: f, path: path, cfg: cfg, now: now}
	if st, err := f.Stat(); err == nil {
		j.size = st.Size()
	}
	if cfg.MaxBytes > 0 {
		j.seq = nextRotationSeq(path)
	}
	j.lastSync = j.now()
	return j, nil
}

// NewJournalWriter wraps a caller-owned writer (tests, buffers) with the
// zero config. Close does not close the underlying writer.
func NewJournalWriter(w io.Writer) *Journal {
	return NewJournalWriterWith(w, JournalConfig{})
}

// NewJournalWriterWith wraps a caller-owned writer with an explicit
// config. Fsync policies apply when the writer exposes Sync() error
// (os.File does); rotation never applies to caller-owned writers.
func NewJournalWriterWith(w io.Writer, cfg JournalConfig) *Journal {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	j := &Journal{w: w, cfg: cfg, now: now}
	j.lastSync = j.now()
	return j
}

// nextRotationSeq returns the first unused "<path>.<N>" suffix, so a
// reopened journal continues its rotation sequence instead of clobbering
// history.
func nextRotationSeq(path string) int {
	seq := 1
	for {
		if _, err := os.Stat(fmt.Sprintf("%s.%d", path, seq)); err != nil {
			return seq
		}
		seq++
	}
}

// Append writes one record as a JSON line. It is safe for concurrent use
// and guaranteed not to panic: a panicking or failing writer costs the
// record (counted in Drops), never the detection pipeline.
func (j *Journal) Append(rec AlertRecord) (err error) {
	if j == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			j.drops.Inc()
			err = fmt.Errorf("obs: journal append panicked: %v", r)
		}
	}()
	line, err := json.Marshal(rec)
	if err != nil {
		j.drops.Inc()
		return fmt.Errorf("obs: journal encode: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil {
		j.drops.Inc()
		return fmt.Errorf("obs: journal is closed")
	}
	if _, err := j.w.Write(line); err != nil {
		j.drops.Inc()
		return fmt.Errorf("obs: journal write: %w", err)
	}
	j.writes.Inc()
	j.size += int64(len(line))
	j.sinceSync++
	j.maybeSyncLocked()
	j.maybeRotateLocked()
	if j.pubSize != nil {
		j.pubSize.Set(j.size)
	}
	return nil
}

// PublishMetrics registers rotation observability on a registry:
// dynaminer_journal_rotations_total (completed rotations, backfilled
// with any that already happened) and dynaminer_journal_size_bytes (the
// current file size), so rotation behavior is visible before the disk
// fills. Idempotent per registry; safe to call from every engine shard
// sharing the journal.
func (j *Journal) PublishMetrics(reg *Registry) {
	if j == nil || reg == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pubReg == reg {
		return
	}
	j.pubReg = reg
	j.pubRotations = reg.Counter("dynaminer_journal_rotations_total", "completed journal file rotations")
	j.pubSize = reg.Gauge("dynaminer_journal_size_bytes", "current journal file size")
	if n := j.rotations.Value(); n > 0 {
		j.pubRotations.Add(n)
	}
	j.pubSize.Set(j.size)
}

// syncer is the optional stable-storage hook a journal sink can expose.
type syncer interface{ Sync() error }

// maybeSyncLocked applies the configured fsync policy after a successful
// append; the caller holds mu.
func (j *Journal) maybeSyncLocked() {
	due := j.cfg.FsyncEvery > 0 && j.sinceSync >= j.cfg.FsyncEvery
	if !due && j.cfg.FsyncInterval > 0 && j.now().Sub(j.lastSync) >= j.cfg.FsyncInterval {
		due = true
	}
	if due {
		_ = j.syncLocked()
	}
}

// syncLocked pushes written records to stable storage when the sink can;
// a refusal is counted, never propagated to the appender — the bytes are
// already with the OS and the journal keeps appending. The caller holds
// mu.
func (j *Journal) syncLocked() error {
	j.sinceSync = 0
	j.lastSync = j.now()
	s, ok := j.w.(syncer)
	if !ok {
		return nil
	}
	if err := s.Sync(); err != nil {
		j.syncFailures.Inc()
		return fmt.Errorf("obs: journal sync: %w", err)
	}
	j.syncs.Inc()
	return nil
}

// maybeRotateLocked rotates the journal once the current file exceeds
// MaxBytes: sync, rename to "<path>.<N>", open a fresh file. If the fresh
// file cannot be opened the journal keeps appending to the old handle —
// records land in the rotated file, misplaced but never lost. The caller
// holds mu.
func (j *Journal) maybeRotateLocked() {
	if j.cfg.MaxBytes <= 0 || j.size < j.cfg.MaxBytes || j.path == "" || j.closer == nil {
		return
	}
	old, ok := j.closer.(*os.File)
	if !ok {
		return
	}
	_ = old.Sync()
	if err := os.Rename(j.path, fmt.Sprintf("%s.%d", j.path, j.seq)); err != nil {
		j.size = 0 // stop retrying every append; the file keeps growing in place
		return
	}
	fresh, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The old handle now points at the rotated file; keep writing there.
		j.size = 0
		return
	}
	_ = old.Close()
	j.w, j.closer = fresh, fresh
	j.seq++
	j.size = 0
	j.rotations.Inc()
	if j.pubRotations != nil {
		j.pubRotations.Inc()
	}
}

// Sync forces everything appended so far to stable storage (when the sink
// supports it) and reports the sink's verdict; graceful drains call this
// before Close so no alert rides only in the page cache.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil {
		return nil
	}
	return j.syncLocked()
}

// Writes returns how many records were appended successfully.
func (j *Journal) Writes() int64 {
	if j == nil {
		return 0
	}
	return j.writes.Value()
}

// Drops returns how many records were lost to errors or panics.
func (j *Journal) Drops() int64 {
	if j == nil {
		return 0
	}
	return j.drops.Value()
}

// Syncs returns how many fsyncs reached stable storage.
func (j *Journal) Syncs() int64 {
	if j == nil {
		return 0
	}
	return j.syncs.Value()
}

// SyncFailures returns how many fsyncs the sink refused.
func (j *Journal) SyncFailures() int64 {
	if j == nil {
		return 0
	}
	return j.syncFailures.Value()
}

// Rotations returns how many completed file rotations happened.
func (j *Journal) Rotations() int64 {
	if j == nil {
		return 0
	}
	return j.rotations.Value()
}

// Close syncs the file to stable storage and closes it when the journal
// owns one. Idempotent; Append after Close reports an error.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	c := j.closer
	if j.w != nil {
		_ = j.syncLocked()
	}
	j.w, j.closer = nil, nil
	if c != nil {
		return c.Close()
	}
	return nil
}

// ReadJournal decodes a JSONL journal stream, the inverse of Append. A
// damaged final record — the torn write of a crash or power loss — is
// dropped, not an error: Append writes each record with one unbuffered
// write, so only the tail can legitimately tear. Damage followed by
// further records is corruption, and still errors.
func ReadJournal(r io.Reader) ([]AlertRecord, error) {
	var out []AlertRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	tornLine, tornErr := 0, error(nil)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if tornErr != nil {
			return out, fmt.Errorf("obs: journal line %d: %w", tornLine, tornErr)
		}
		var rec AlertRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			tornLine, tornErr = line, err
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// ReadJournalFile decodes a journal file by path.
func ReadJournalFile(path string) ([]AlertRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}
