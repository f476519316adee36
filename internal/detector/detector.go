// Package detector implements DynaMiner's Stage 2, on-the-wire malware
// detection (Section V-B): it consumes a live stream of HTTP transactions,
// weeds out trusted-vendor traffic, clusters transactions into per-client
// sessions via session IDs, referrer linkage and timestamps, infers
// infection clues (a redirection chain of length >= L followed by a
// download of a likely-malicious payload type), goes back in time to build
// a potential-infection WCG around each clue, and re-classifies that WCG
// with the trained ERF model on every related update until the session
// ends or the WCG stops growing.
package detector

import (
	"encoding/json"
	"math"
	"net/netip"
	"slices"
	"strings"
	"time"

	"dynaminer/internal/features"
	"dynaminer/internal/graph"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
	"dynaminer/internal/wcg"
)

// Scorer produces the infection probability of a feature vector. The ERF
// classifier (*ml.FlatForest) satisfies it.
type Scorer interface {
	Score(x []float64) float64
}

// VoteScorer is optionally implemented by scorers that can report the
// per-tree vote tally alongside the ensemble score (*ml.FlatForest does).
// ScoreWithVotes must accumulate in exactly the same order as Score so
// the score it returns is bit-identical; the journal uses it to record
// how contested each alert's verdict was.
type VoteScorer interface {
	ScoreWithVotes(x []float64) (score float64, votes, trees int)
}

// Config tunes the on-the-wire engine.
type Config struct {
	// RedirectThreshold is L in the clue rule; the forensic case study uses
	// 3. Zero selects 3.
	RedirectThreshold int
	// TrustedVendors lists host suffixes whose traffic is weeded out
	// before WCG construction (app stores, software repositories).
	TrustedVendors []string
	// Shards is the number of independently locked shards the engine
	// routes clients across. Zero selects runtime.GOMAXPROCS(0).
	Shards int
	// DisableIncremental reseeds the watched WCG on every classification:
	// the live graph is rebuilt from the whole watch in request-time order
	// and all 37 features are re-derived, where the default reseeds only
	// when a record arrives out of request-time order. Both produce
	// bit-identical scores and alerts (pinned by the differential tests);
	// the always-reseeding engine is the oracle those tests and the
	// benchmark's correctness check compare against.
	DisableIncremental bool
	// Metrics selects the observability registry the engine's counters
	// and the watched gauge are registered on (every shard shares it). nil
	// keeps a private registry: the Stats view still works and nothing is
	// exported. It chooses a registry and nothing more; latency is the
	// Tracer's.
	Metrics *obs.Registry
	// Journal, when set, receives one provenance record per alert: the
	// arming clue, the WCG shape, the exact feature vector and score the
	// classifier used, and whether the cluster was quarantined. Journal
	// failures never affect detection.
	Journal *obs.Journal
	// Tracer, when set, records one span tree per transaction —
	// detector.process → detector.classify → features.incremental →
	// ml.score → journal.write — with shard, quarantine and reseed
	// attribution on the spans; every closed span observes its
	// dynaminer_stage_* histogram, and the tracer's sampling picks the
	// trees it keeps. Every shard shares it. It is the engine's only
	// clock: nil disables tracing entirely, and the engine then reads no
	// clock at all (the hot path pays one nil check). The clock moves
	// stage histograms and span stamps only: verdicts, journal records and
	// counters are a function of the input alone.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.RedirectThreshold == 0 {
		c.RedirectThreshold = 3
	}
	if len(c.TrustedVendors) > 0 {
		// DNS names are case-insensitive; hosts are normalized to lowercase
		// at extraction, so the weed-out list must be too.
		lowered := make([]string, len(c.TrustedVendors))
		for i, v := range c.TrustedVendors {
			lowered[i] = strings.ToLower(v)
		}
		c.TrustedVendors = lowered
	}
	return c
}

// The engine's decision threshold and its session and memory bounds. The
// paper tunes only the clue threshold L (Config.RedirectThreshold); these
// are constants.
const (
	// ScoreThreshold is the ERF's decision point: an alert fires when the
	// averaged vote for a watched WCG exceeds it. Offline classification
	// (dynaminer.Classifier.IsInfection) decides on the same constant.
	ScoreThreshold = 0.5
	// sessionGap is the inactivity window beyond which a transaction
	// starts a new session cluster instead of joining the client's most
	// recent one.
	sessionGap = 5 * time.Minute
	// watchIdle closes a potential-infection WCG that has stopped growing
	// for longer than this (Section V-B: DynaMiner watches each WCG
	// "until ... the WCG stops growing"); later clues in the same session
	// open a fresh WCG. It is also how far back a clue's WCG reaches.
	watchIdle = 3 * time.Minute
	// maxClusterTxs caps a cluster's transaction history to bound memory
	// on long-lived sessions. A full unwatched cluster is evicted and the
	// next transaction opens a fresh one; a full watched cluster drops
	// later transactions and counts them (DESIGN.md §9).
	maxClusterTxs = 4096
	// clusterTTL evicts session clusters idle longer than this, inline
	// every evictEvery transactions.
	clusterTTL = time.Hour
	// evictEvery is how many processed transactions pass between inline
	// idle-cluster sweeps.
	evictEvery = 512
)

// DefaultTrustedVendors is the weed-out list NewMonitor falls back to
// when its config names none: well-known application stores and
// software repositories.
var DefaultTrustedVendors = []string{
	"vendor-store.com",
	"trusted-repo.org",
	"windowsupdate.com",
	"apple.com",
	"mozilla.org",
}

// Alert is one infection verdict.
type Alert struct {
	Time      time.Time
	Client    netip.Addr
	ClusterID int
	Score     float64
	// TriggerHost is the host that served the payload whose download
	// produced the alert.
	TriggerHost string
	// TriggerPayload is the payload class of the triggering download.
	TriggerPayload wcg.PayloadClass
	// WCGOrder and WCGSize are the node and edge counts of the
	// potential-infection WCG at alert time.
	WCGOrder, WCGSize int

	// hist, tab and watch are the frozen view Graph builds from: the
	// cluster's record history and host table at alert time, shared with
	// the cluster (which only ever appends to them), and a copy of the
	// watch's indices into the history.
	hist  []wcg.Record
	tab   wcg.Table
	watch []int
}

// Graph builds the potential-infection WCG as it stood at alert time:
// wcg.FromRecords over the watch, byte-identical (WriteJSON) to the
// finalized form of the graph the engine scored. Every call builds a
// fresh graph from the alert's frozen view of its watch, so a caller that
// needs it twice keeps the result; nothing the engine does later changes
// what Graph returns. A zero Alert has no graph: nil.
func (a Alert) Graph() *wcg.WCG {
	if len(a.watch) == 0 {
		return nil
	}
	return wcg.FromRecords(&a.tab, a.hist, a.watch)
}

// FormatTime renders the alert timestamp in the given layout, or "unset"
// when the alert carries no timestamp: the zero time.Time would render as
// the year 1 and silently corrupt SIEM timelines.
func (a Alert) FormatTime(layout string) string {
	if a.Time.IsZero() {
		return "unset"
	}
	return a.Time.Format(layout)
}

// MarshalJSON renders the alert as a SIEM-friendly JSON object (the WCG is
// summarized, not embedded).
func (a Alert) MarshalJSON() ([]byte, error) {
	// An unset timestamp serializes as "", never as the zero time's
	// "0001-01-01T00:00:00Z".
	ts := ""
	if !a.Time.IsZero() {
		ts = a.Time.UTC().Format(time.RFC3339Nano)
	}
	return json.Marshal(struct {
		Time      string  `json:"time"`
		Client    string  `json:"client"`
		ClusterID int     `json:"clusterId"`
		Score     float64 `json:"score"`
		Host      string  `json:"host"`
		Payload   string  `json:"payload"`
		WCGOrder  int     `json:"wcgOrder"`
		WCGSize   int     `json:"wcgSize"`
	}{
		Time:      ts,
		Client:    a.Client.String(),
		ClusterID: a.ClusterID,
		Score:     a.Score,
		Host:      a.TriggerHost,
		Payload:   a.TriggerPayload.String(),
		WCGOrder:  a.WCGOrder,
		WCGSize:   a.WCGSize,
	})
}

// Stats counts engine activity, matching the numbers the case studies
// report (transactions inspected, clues fired, classifier invocations).
type Stats struct {
	Transactions    int
	Weeded          int
	Clusters        int
	Evicted         int
	CluesFired      int
	Classifications int
	Alerts          int
	// Dropped counts transactions discarded because their watched
	// cluster's history held maxClusterTxs (4096) transactions.
	Dropped int
	// Rebuilds counts reseeds: classifications that rebuilt the watched
	// WCG from the whole watch because a record arrived earlier than one
	// the live graph already held, or every classification when
	// DisableIncremental is set. Seeding a watch that has no live graph
	// (at arming, after a checkpoint restore, after a quarantine) is not
	// a reseed.
	Rebuilds int
	// Panics counts per-transaction faults the engine recovered from: a
	// panic while processing or classifying, or a scorer returning a
	// non-finite probability. The transaction's alerts are discarded; the
	// engine itself keeps serving.
	Panics int
	// Quarantined counts clusters placed in quarantine after their first
	// fault: the live graph and its feature cache are dropped, and the
	// next classification seeds fresh ones from the watch. A second fault
	// evicts the cluster outright (counted in Evicted).
	Quarantined int
	// Degraded and Shed are always zero: the engine neither skips a
	// re-classification nor closes a watch early. Their only reader is
	// bench/trace.go, whose detector.degraded and detector.shed rows they
	// keep until the benchmark drops those rows.
	Degraded int
	Shed     int
}

// add accumulates o into s (used to aggregate shard counters).
func (s *Stats) add(o Stats) {
	s.Transactions += o.Transactions
	s.Weeded += o.Weeded
	s.Clusters += o.Clusters
	s.Evicted += o.Evicted
	s.CluesFired += o.CluesFired
	s.Classifications += o.Classifications
	s.Alerts += o.Alerts
	s.Dropped += o.Dropped
	s.Rebuilds += o.Rebuilds
	s.Panics += o.Panics
	s.Quarantined += o.Quarantined
}

// clickGap separates automatic redirections from human link-clicks, as in
// the WCG construction stage.
const clickGap = 2 * time.Second

// hostSeen is what a cluster knows of one string of its host table
// beside the string itself.
type hostSeen struct {
	// last is when the host last served the cluster (Unix ns, a Record
	// time); served is false for a host never served.
	last   int64
	served bool
	// session marks one of the cluster's session IDs.
	session bool
	// since is the history index from which the cluster knows the host,
	// as served or as a Referer's host; -1 while it does not. Routing
	// reads whether it is known, a watch's call-back rule whether it was
	// known when the clue fired.
	since int32
}

// histCap is the history and host-table capacity a cluster is born with,
// in the cluster itself: most benign sessions run to a dozen transactions
// over a handful of hosts, so one history allocation beyond the cluster's
// own covers them.
const histCap = 8

// cluster is one session's state: the host table that routes
// transactions to it and the history of their Records.
type cluster struct {
	id     int
	client netip.Addr
	hist   []wcg.Record
	// hosts is the host table hist indexes: every host, session ID and
	// other string the cluster's transactions named, each once, with
	// the cluster's facts about it in seen (same index).
	hosts      wcg.Table
	seen       []hostSeen
	lastActive time.Time
	redirects  int // running count of redirect evidence (sum-of-all rule)

	watching  bool
	alerted   bool
	watch     []int // indices into hist forming the potential-infection WCG, ascending
	watchLast time.Time
	// related marks, by host-table index, the watch's related hosts;
	// nRelated counts them.
	related  []bool
	nRelated int
	// armIdx is the history index of the download that armed the watch:
	// a host known since no later was seen before the clue fired. The
	// watch's indices up to armIdx are its set at the moment the clue
	// fired; include appends only later ones.
	armIdx int

	// Clue provenance for the current watch, recorded in journal entries:
	// the host and payload class of the arming download and the redirect
	// evidence accumulated when it fired.
	clueHost      string
	cluePayload   wcg.PayloadClass
	clueRedirects int

	// closed holds the watch sets of WCGs that stopped growing, for
	// offline subset extraction.
	closed [][]int

	// pinned is the model reference that armed the current watch: every
	// classification of this watch scores through it, so an episode is
	// judged by one forest end-to-end even if the engine hot-swaps models
	// while the WCG grows. nil outside a watch.
	pinned *modelRef

	// Classification state for the current watch: the live WCG, its
	// feature cache, and how many watch entries have been fed. nil ib
	// means the next classification seeds them from the whole watch.
	ib    *wcg.IncrementalBuilder
	cache *features.Cache
	fed   int

	// faults is the cluster's position on the quarantine ladder: 0 is
	// healthy, 1 is quarantined (live graph and feature cache dropped,
	// reseeded by the next classification), and a second fault evicts
	// the cluster.
	faults int

	// The first histCap host-table entries and records: hosts.Names, seen
	// and hist start over these, so a cluster and its short session are
	// one allocation. The pointer-free arrays come last, where the
	// collector's scan of a cluster has stopped.
	nameBuf [histCap]string
	seenBuf [histCap]hostSeen
	histBuf [histCap]wcg.Record
}

// shardState is one shard's detector: the session clusters of the clients
// routed to it and the single-threaded pipeline that grows and classifies
// them. It is not safe for concurrent use — Engine serializes every access
// behind the owning shard's mutex.
type shardState struct {
	cfg Config
	// models is the engine-wide holder of the serving scorer; a hot-swap
	// reaches every shard's next watch arming at once.
	models   *modelHolder
	clusters []*cluster
	byClient map[netip.Addr][]*cluster
	// mx backs every Stats counter with registry cells; stats() is a
	// bridged view over it.
	mx      *engineMetrics
	journal *obs.Journal
	// idBase/idStep parameterize cluster ID allocation so shards never
	// collide: of n shards, the cluster that shard i's k-th transaction
	// opens (k from 0) gets the ID i+k*n.
	idBase, idStep int
	// scratch is the graph workspace shared by every cluster's feature
	// cache (safe: the shard is serialized); fvec is the reusable
	// classification vector.
	scratch *graph.Scratch
	fvec    []float64
	// txSeen counts transactions this shard ingested, driving the inline
	// eviction cadence and numbering new clusters. Unlike the metrics cell
	// it is checkpointed and restored, so a recovered engine sweeps at the
	// same transaction offsets and opens clusters under the same IDs as an
	// uninterrupted run — a prerequisite for bit-identical post-recovery
	// alerts.
	txSeen int64
	// restoring suppresses classification and stat counters while a
	// checkpointed cluster's transactions are replayed through the
	// structural pipeline (see restoreCluster).
	restoring bool
	// tracer and stg drive pipeline tracing; at/atRoot carry the current
	// transaction's trace through the call tree (the shard is serialized,
	// so a field is safe and keeps every signature intact). at is nil
	// outside shard.process and when tracing is off — every span call is
	// nil-receiver safe, so untraced engines pay one predictable branch.
	tracer *obs.Tracer
	stg    engineStages
	at     *obs.ActiveTrace
	atRoot int
	// ownAT is the shard's reusable trace recorder: one embedded recorder
	// per shard replaces the tracer pool's Get/Put on every transaction
	// (commit copies kept trees out, so reuse is safe).
	ownAT obs.ActiveTrace
}

// newShardState builds shard idBase of idStep over the engine's registry
// and model holder. cfg already carries its defaults.
func newShardState(cfg Config, reg *obs.Registry, models *modelHolder, idBase, idStep int) *shardState {
	s := &shardState{
		cfg:      cfg,
		models:   models,
		byClient: make(map[netip.Addr][]*cluster),
		mx:       newEngineMetrics(reg),
		journal:  cfg.Journal,
		idBase:   idBase,
		idStep:   idStep,
		scratch:  graph.NewScratch(),
		tracer:   cfg.Tracer,
		atRoot:   -1,
	}
	if cfg.Tracer != nil {
		s.stg = newEngineStages(cfg.Tracer)
	}
	return s
}

// stats returns a snapshot of this shard's counters — a bridged view over
// its registry cells, so the numbers here and on /metrics are the same
// counters read two ways.
func (s *shardState) stats() Stats {
	return Stats{
		Transactions:    int(s.mx.transactions.Value()),
		Weeded:          int(s.mx.weeded.Value()),
		Clusters:        int(s.mx.clusters.Value()),
		Evicted:         int(s.mx.evicted.Value()),
		CluesFired:      int(s.mx.cluesFired.Value()),
		Classifications: int(s.mx.classifications.Value()),
		Alerts:          int(s.mx.alerts.Value()),
		Dropped:         int(s.mx.dropped.Value()),
		Rebuilds:        int(s.mx.rebuilds.Value()),
		Panics:          int(s.mx.panics.Value()),
		Quarantined:     int(s.mx.quarantined.Value()),
	}
}

// quarantined reports whether any of this shard's clusters carries a
// quarantine strike, the one readiness condition /healthz serves.
func (s *shardState) quarantined() bool {
	for _, c := range s.clusters {
		if c.faults > 0 {
			return true
		}
	}
	return false
}

// trusted reports whether the host matches the weed-out list.
func (s *shardState) trusted(host string) bool {
	for _, suffix := range s.cfg.TrustedVendors {
		if host == suffix || strings.HasSuffix(host, "."+suffix) {
			return true
		}
	}
	return false
}

// process runs one transaction through the shard's pipeline: eviction
// cadence, trusted-vendor weed-out, cluster assignment, then the guarded
// per-cluster stage. shard.process is its only live caller.
//
// A full cluster that is not watching is evicted at once and the
// transaction opens a fresh one: dropping it instead would hide every
// later transaction of a busy client, an infection included, for as long
// as the client stays active.
func (s *shardState) process(tx httpstream.Transaction) []Alert {
	s.mx.transactions.Inc()
	s.txSeen++
	if s.txSeen%evictEvery == 0 {
		s.evictIdle(tx.ReqTime.Add(-clusterTTL))
	}
	k := wcg.KeysOf(&tx)
	if s.trusted(k.Host) {
		s.mx.weeded.Inc()
		return nil
	}
	c := s.clusterFor(&tx, k)
	if len(c.hist) >= maxClusterTxs && !c.watching {
		s.dropCluster(c)
		c = s.openCluster(tx.ClientIP)
	}
	return s.processInCluster(c, &tx, k)
}

// processInCluster digests the transaction, whose keys are k, into the
// cluster's host table and runs the per-cluster pipeline on its record,
// under a panic guard: a fault anywhere past cluster assignment discards
// the transaction's alerts and advances the cluster on the quarantine
// ladder instead of unwinding through the caller. Nothing of tx outlives
// the call but the strings the host table interns.
func (s *shardState) processInCluster(c *cluster, tx *httpstream.Transaction, k wcg.Keys) (alerts []Alert) {
	defer func() {
		if r := recover(); r != nil {
			alerts = s.fault(c)
		}
	}()
	if s.capped(c, tx.ReqTime) {
		return nil
	}
	return s.step(c, c.digest(tx, k))
}

// replayRecord runs a checkpointed record, already in the cluster's host
// table, through the per-cluster pipeline under processInCluster's guard.
func (s *shardState) replayRecord(c *cluster, r wcg.Record) {
	defer func() {
		if p := recover(); p != nil {
			s.fault(c)
		}
	}()
	if !s.capped(c, wcg.Time(r.ReqTime)) {
		s.step(c, r)
	}
}

// fault is the panic guard's response: the transaction's alerts are
// discarded (the nil it returns) and the cluster is quarantined.
func (s *shardState) fault(c *cluster) []Alert {
	s.at.Annotate(s.atRoot, obs.SpanError|obs.SpanQuarantined)
	s.quarantine(c)
	return nil
}

// capped reports whether the cluster's history is full, in which case a
// transaction requested at req is dropped; only a watched cluster gets
// here full (process evicts an unwatched one). The session is still
// active even though its history is capped: lastActive stays fresh so TTL
// eviction does not destroy the watched WCG mid-session, and the drop is
// visible in the counters.
func (s *shardState) capped(c *cluster, req time.Time) bool {
	if len(c.hist) < maxClusterTxs {
		return false
	}
	c.lastActive = req
	if !s.restoring {
		s.mx.dropped.Inc()
	}
	return true
}

// step appends a record to the cluster's history and runs clue inference
// and the watch on it.
func (s *shardState) step(c *cluster, r wcg.Record) []Alert {
	idx := len(c.hist)
	c.hist = append(c.hist, r)
	c.noteActivity(idx, &r)
	reqTime := wcg.Time(r.ReqTime)

	// A watched WCG that stopped growing is closed; later clues in the
	// same session open a fresh potential-infection WCG with fresh
	// redirect evidence.
	if c.watching && reqTime.Sub(c.watchLast) > watchIdle {
		s.closeWatch(c)
	}

	// Accumulate redirect evidence (the sum-of-all-redirections rule).
	if r.Status >= 300 && r.Status < 400 {
		c.redirects++
	}
	c.redirects += int(r.SniffHi - r.SniffLo)

	// Infection clue: enough redirect evidence followed by a download of a
	// likely-malicious payload type. The clue triggers the backward
	// construction of a potential-infection WCG around the chain.
	if r.Flags&wcg.RecDownload != 0 && !c.watching && c.redirects >= s.cfg.RedirectThreshold {
		c.watching = true
		// Pin the serving model: this watch scores through exactly this
		// forest until it closes, no matter what hot-swaps happen meanwhile.
		c.pinned = s.models.current()
		if !s.restoring {
			s.mx.cluesFired.Inc()
		}
		s.mx.watched.Inc()
		// Clue provenance for this watch's journal records: the arming
		// download and the redirect evidence that armed it.
		c.clueHost, c.cluePayload, c.clueRedirects = c.hosts.Names[r.Host], r.PayloadClass(), c.redirects
		c.armIdx = idx
		c.buildPotentialWCG(idx)
		c.watchLast = reqTime
		return s.classify(c, idx)
	}
	if !c.watching {
		return nil
	}
	// Watched WCG: related transactions grow it and trigger
	// re-classification; unrelated browsing is left out, as the paper's
	// session-ID/referrer grouping prescribes.
	if !c.relatedTx(&r) {
		return nil
	}
	c.include(idx)
	c.watchLast = reqTime
	return s.classify(c, idx)
}

// closeWatch finalizes a cluster's watch via cluster.closeWatch and keeps
// the watched gauge in step.
func (s *shardState) closeWatch(c *cluster) {
	if c.watching {
		s.mx.watched.Dec()
	}
	c.closeWatch()
}

// quarantine advances a faulted cluster on the quarantine ladder. First
// fault: drop the (possibly poisoned) live graph and feature cache, so
// the next classification seeds fresh ones from the watch. Second fault:
// the fresh state did not cure it — evict the cluster outright so its
// state cannot fault a third time.
func (s *shardState) quarantine(c *cluster) {
	s.mx.panics.Inc()
	c.faults++
	if c.faults == 1 {
		c.ib, c.cache = nil, nil
		s.mx.quarantined.Inc()
		return
	}
	s.dropCluster(c)
}

// dropCluster removes one session cluster from the engine.
func (s *shardState) dropCluster(target *cluster) {
	s.removeClusters(func(c *cluster) bool { return c == target })
}

// removeClusters removes every cluster drop selects from the shard's
// cluster list and its client index, keeps the watched gauge and the
// eviction counter in step, and returns how many it removed.
func (s *shardState) removeClusters(drop func(*cluster) bool) int {
	kept := s.clusters[:0]
	for _, c := range s.clusters {
		if !drop(c) {
			kept = append(kept, c)
			continue
		}
		if c.watching {
			s.mx.watched.Dec()
		}
		list := s.byClient[c.client]
		keptList := list[:0]
		for _, o := range list {
			if o != c {
				keptList = append(keptList, o)
			}
		}
		if len(keptList) == 0 {
			delete(s.byClient, c.client)
		} else {
			s.byClient[c.client] = keptList
		}
	}
	removed := len(s.clusters) - len(kept)
	if removed == 0 {
		return 0
	}
	clear(s.clusters[len(kept):]) // let the removed clusters be collected
	s.clusters = kept
	s.mx.evicted.Add(int64(removed))
	return removed
}

// classify scores the cluster's potential-infection WCG and emits an
// alert on the first infectious verdict and on every payload download into
// an infectious-scoring WCG.
//
// There is one feature path: new watch records are appended to the
// cluster's live WCG and the cached feature vector is refreshed in place
// (feedWatch), so an update costs what it added, not the whole watch. An
// alert copies no graph: it keeps a frozen view of the watch and builds
// its WCG only on request (Alert.Graph).
func (s *shardState) classify(c *cluster, idx int) []Alert {
	if s.restoring {
		return nil // checkpoint replay rebuilds structure, never verdicts
	}
	ref := c.pinned
	if ref.scorer == nil {
		return nil // extraction-only mode (training-set construction)
	}
	at := s.at
	// The classify span is ended explicitly at each return (no defer): a
	// panic unwinds past it, and the root span's pop-through close
	// finalizes it at the end-to-end instant. Its first child, the
	// feature span, opens at the same instant and is left open for
	// scoreVector to close.
	begin := at.Mark()
	cs := at.StartSpanAt(s.stg.classify, begin)
	if c.faults > 0 {
		at.Annotate(cs, obs.SpanQuarantined)
	}
	fs := at.StartSpanAt(s.stg.featInc, begin)
	incremental := !s.feedWatch(c)
	if incremental {
		at.Annotate(cs, obs.SpanIncremental)
	} else {
		s.mx.rebuilds.Inc()
		at.Annotate(cs, obs.SpanReseed)
	}
	x, g := s.cachedVector(c.cache, fs), c.ib.Live()
	score := s.scoreVector(ref.scorer, x, fs)
	s.mx.classifications.Inc()
	// A scorer emitting a non-finite probability is as broken as one
	// that panics: NaN compares false with every threshold and would
	// either always or never alert. Treat it as a fault so the recover
	// guard quarantines the cluster instead of corrupting verdicts.
	if math.IsNaN(score) || math.IsInf(score, 0) {
		panic("detector: scorer returned a non-finite probability")
	}
	if score <= ScoreThreshold {
		at.EndSpan(cs)
		return nil
	}
	r := &c.hist[idx]
	download := r.Flags&wcg.RecDownload != 0
	if c.alerted && !download {
		at.EndSpan(cs)
		return nil
	}
	c.alerted = true
	s.mx.alerts.Inc()
	trigger := r
	if !download {
		// First crossing on a non-download update (s.g. a C&C call-back):
		// attribute the alert to the latest download in the WCG.
		for i := len(c.watch) - 1; i >= 0; i-- {
			if t := &c.hist[c.watch[i]]; t.Flags&wcg.RecDownload != 0 {
				trigger = t
				break
			}
		}
	}
	// Transactions that never got a response (s.g. upstream timeouts in
	// extraction-only replays) carry no RespTime; fall back to the
	// request time so alerts are always stamped.
	when := r.RespTime
	if when == wcg.NoTime {
		when = r.ReqTime
	}
	// The alert's frozen view: the history and host-table prefixes are
	// shared, since the cluster only appends past them, and the watch
	// indices are copied, since a re-armed watch is cut back and rebuilt
	// in place.
	c.spill()
	alert := Alert{
		Time:           wcg.Time(when),
		Client:         c.client,
		ClusterID:      c.id,
		Score:          score,
		TriggerHost:    c.hosts.Names[trigger.Host],
		TriggerPayload: trigger.PayloadClass(),
		WCGOrder:       g.Order(),
		WCGSize:        g.Size(),
		hist:           c.hist[:len(c.hist):len(c.hist)],
		tab:            c.hosts.Prefix(),
		watch:          append([]int(nil), c.watch...),
	}
	s.journalAlert(c, ref, &alert, g.StructVersion(), x, incremental)
	at.EndSpan(cs)
	return []Alert{alert}
}

// scoreVector closes the still-open feature-extraction span prev (-1
// when none) and runs the watch's pinned model under the ml.score span,
// which opens as prev closes.
func (s *shardState) scoreVector(model Scorer, x []float64, prev int) float64 {
	handoff := s.at.Mark()
	s.at.EndSpanAt(prev, handoff)
	ss := s.at.StartSpanAt(s.stg.score, handoff)
	score := model.Score(x)
	s.at.EndSpan(ss)
	return score
}

// journalAlert appends the alert's provenance record: the arming clue,
// the shape of the WCG that was scored (structVersion is its structural
// version), the exact feature vector and score the classifier used
// (the vector is copied before the reusable buffer is overwritten by the
// next classification), and whether the cluster was quarantined. The
// journal's Append never panics, so a failing sink costs the record,
// never the alert.
func (s *shardState) journalAlert(c *cluster, ref *modelRef, a *Alert, structVersion uint64, x []float64, incremental bool) {
	if s.journal == nil {
		return
	}
	js := s.at.StartSpan(s.stg.journal)
	defer s.at.EndSpan(js)
	rec := obs.AlertRecord{
		TraceID:          s.at.ID(),
		ModelVersion:     ref.version.String(),
		Time:             a.Time,
		Client:           a.Client.String(),
		ClusterID:        a.ClusterID,
		ClueHost:         c.clueHost,
		CluePayload:      c.cluePayload.String(),
		ClueRedirects:    c.clueRedirects,
		WCGNodes:         a.WCGOrder,
		WCGEdges:         a.WCGSize,
		WCGStructVersion: structVersion,
		Incremental:      incremental,
		Features:         append([]float64(nil), x...),
		Score:            a.Score,
		Threshold:        ScoreThreshold,
		Quarantined:      c.faults > 0,
	}
	if vs, ok := ref.scorer.(VoteScorer); ok {
		// The tally re-scores the vector; the VoteScorer contract makes
		// the result bit-identical to the decision score, and the guard
		// drops the tally (never the record) from an implementation that
		// breaks it.
		if score, votes, trees := vs.ScoreWithVotes(x); score == a.Score {
			rec.Votes, rec.Trees = votes, trees
		}
	}
	_ = s.journal.Append(rec)
}

// feedWatch brings the cluster's live WCG and feature cache up to its
// watch and reports whether that took a reseed. The watch's new records
// are appended in arrival order; a record earlier than one the live graph
// already holds is refused (the batch order is by request time), and the
// watch is then reseeded: a fresh live graph over the whole watch, sorted
// by request time, with the cluster's cache Reset onto it. Appends go on
// from there. A watch with no live graph (at arming, after a checkpoint
// restore, after a quarantine) is seeded the same way, which is not
// counted as a reseed; DisableIncremental reseeds every time.
func (s *shardState) feedWatch(c *cluster) (reseeded bool) {
	if c.ib != nil && !s.cfg.DisableIncremental {
		for ; c.fed < len(c.watch); c.fed++ {
			if !c.ib.AppendRecord(&c.hist[c.watch[c.fed]]) {
				break
			}
		}
		if c.fed == len(c.watch) {
			return false
		}
	}
	reseeded = c.ib != nil || s.cfg.DisableIncremental
	c.ib = wcg.SeedIncrementalBuilder(&c.hosts, c.hist, c.watch)
	c.fed = len(c.watch)
	if c.cache == nil {
		c.cache = features.NewCache(c.ib.Live(), s.scratch)
	} else {
		c.cache.Reset(c.ib.Live(), s.scratch)
	}
	return reseeded
}

// cachedVector syncs cache into the shard's vector buffer under the open
// feature span. A sync that had to refresh the topology slots — O(n) for
// a new leaf host, the full sweep for any other structural change — costs
// many times one that did not, so it is counted and the span flagged: the
// modes of the classify histograms stay attributable.
func (s *shardState) cachedVector(cache *features.Cache, span int) []float64 {
	runs := cache.TopologyRuns()
	s.fvec = cache.FeaturesInto(s.fvec)
	if cache.TopologyRuns() != runs {
		s.mx.topologyRuns.Inc()
		s.at.Annotate(span, obs.SpanTopology)
	}
	return s.fvec
}

// ClueSubsets replays a recorded transaction stream with the clue
// heuristic only (no classifier) and returns, per session cluster whose
// clue fired, the WCGs of both the potential-infection subset at clue
// time and the fully-grown subset at stream end, each as FromTransactions
// builds it over the subset. The offline training stage uses these so the
// classifier learns on exactly the WCG representations — early and
// mature — that the on-the-wire stage scores.
func ClueSubsets(cfg Config, txs []httpstream.Transaction) []*wcg.WCG {
	cfg.Shards = 1 // one shard holds every cluster, in arrival order
	eng := New(cfg, nil)
	for _, tx := range txs {
		eng.Process(tx)
	}
	sh := eng.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []*wcg.WCG
	for _, c := range sh.st.clusters {
		collect := func(idxs []int) { out = append(out, wcg.FromRecords(&c.hosts, c.hist, idxs)) }
		for _, w := range c.closed {
			collect(w)
		}
		if !c.watching {
			continue
		}
		armed, _ := slices.BinarySearch(c.watch, c.armIdx+1)
		collect(c.watch[:armed])
		if len(c.watch) > armed {
			collect(c.watch)
		}
	}
	return out
}

// spill moves the history and the host names out of the cluster's own
// buffers, so that a view of them (an alert's) does not keep the cluster
// alive once it is evicted.
func (c *cluster) spill() {
	if &c.hist[0] == &c.histBuf[0] {
		c.hist = append(make([]wcg.Record, 0, 2*histCap), c.hist...)
	}
	if &c.hosts.Names[0] == &c.nameBuf[0] {
		c.hosts.Names = append(make([]string, 0, 2*histCap), c.hosts.Names...)
	}
}

// digest reduces a transaction, whose keys are k, to its record against
// the cluster's host table, and marks whether its Referer's host served
// the cluster within clickGap. Must run before noteActivity.
func (c *cluster) digest(tx *httpstream.Transaction, k wcg.Keys) wcg.Record {
	r := c.hosts.Digest(tx, k)
	for len(c.seen) < len(c.hosts.Names) {
		c.seen = append(c.seen, hostSeen{since: -1})
	}
	if r.Ref >= 0 {
		if h := c.seen[r.Ref]; h.served && wcg.Sub(r.ReqTime, h.last) <= clickGap {
			r.Flags |= wcg.RecRefRecent
		}
	}
	return r
}

// noteActivity records what the cluster learns from its record idx: its
// host served it, its Referer's host and session ID are known.
func (c *cluster) noteActivity(idx int, r *wcg.Record) {
	if r.Ref >= 0 {
		c.know(r.Ref, idx)
	}
	h := &c.seen[r.Host]
	h.served, h.last = true, r.RespTime
	if r.RespTime == wcg.NoTime {
		h.last = r.ReqTime
	}
	c.know(r.Host, idx)
	if r.SID >= 0 {
		c.seen[r.SID].session = true
	}
	c.lastActive = wcg.Time(r.ReqTime)
}

// know marks host-table string i known from history index idx on.
func (c *cluster) know(i int32, idx int) {
	if h := &c.seen[i]; h.since < 0 {
		h.since = int32(idx)
	}
}

// knows reports whether the cluster knows host as served or as a
// Referer's host.
func (c *cluster) knows(host string) bool {
	i, ok := c.hosts.Lookup(host)
	return ok && c.seen[i].since >= 0
}

// hasSession reports whether sid is one of the cluster's session IDs.
func (c *cluster) hasSession(sid string) bool {
	i, ok := c.hosts.Lookup(sid)
	return ok && c.seen[i].session
}

// buildPotentialWCG walks back in time from the triggering download and
// collects the transactions linked to it: traffic to related hosts,
// redirects into related hosts (Location or sniffed body targets), and
// fast referrer continuations. It runs to a fixpoint so multi-hop chains
// resolve regardless of discovery order, and it looks back at most
// watchIdle so a chain reusing hosts hours later does not absorb stale
// traffic.
func (c *cluster) buildPotentialWCG(trigger int) {
	c.related, c.nRelated = make([]bool, len(c.hosts.Names)), 0
	include := make([]bool, trigger+1)
	include[trigger] = true
	c.addRelated(&c.hist[trigger])
	oldest := wcg.Time(c.hist[trigger].ReqTime).Add(-watchIdle)
	first := trigger
	for first > 0 && !wcg.Time(c.hist[first-1].ReqTime).Before(oldest) {
		first--
	}
	for changed := true; changed; {
		changed = false
		for i := trigger - 1; i >= first; i-- {
			if include[i] {
				continue
			}
			if r := &c.hist[i]; c.relatedTx(r) {
				include[i] = true
				c.addRelated(r)
				changed = true
			}
		}
	}
	c.watch = c.watch[:0]
	for i, in := range include {
		if in {
			c.watch = append(c.watch, i)
		}
	}
}

// relatedTx reports whether a transaction belongs to the potential
// infection WCG under the current related-host set.
func (c *cluster) relatedTx(r *wcg.Record) bool {
	if c.isRelated(r.Host) {
		return true
	}
	if r.Loc >= 0 && c.isRelated(r.Loc) {
		return true
	}
	for _, t := range c.hosts.Sniffs[r.SniffLo:r.SniffHi] {
		if c.isRelated(t) {
			return true
		}
	}
	if r.Flags&wcg.RecRefRecent != 0 && c.isRelated(r.Ref) {
		return true
	}
	// Post-download call-backs go to hosts never seen before the download
	// dynamics (Section II-D).
	if r.Post() {
		h := c.seen[r.Host]
		return h.since < 0 || int(h.since) > c.armIdx
	}
	return false
}

// isRelated reports whether host-table string i is a related host.
func (c *cluster) isRelated(i int32) bool {
	return int(i) < len(c.related) && c.related[i]
}

// relate adds host-table string i to the related-host set.
func (c *cluster) relate(i int32) {
	for len(c.related) <= int(i) {
		c.related = append(c.related, false)
	}
	if !c.related[i] {
		c.related[i] = true
		c.nRelated++
	}
}

// addRelated extends the related-host set with a transaction's hosts.
func (c *cluster) addRelated(r *wcg.Record) {
	c.relate(r.Host)
	if r.Loc >= 0 {
		c.relate(r.Loc)
	}
	for _, t := range c.hosts.Sniffs[r.SniffLo:r.SniffHi] {
		c.relate(t)
	}
	if r.Flags&wcg.RecRefRecent != 0 {
		c.relate(r.Ref)
	}
}

// include appends a related transaction to the watched WCG.
func (c *cluster) include(idx int) {
	c.watch = append(c.watch, idx)
	c.addRelated(&c.hist[idx])
}

// closeWatch finalizes the current potential-infection WCG and returns the
// cluster to pre-clue monitoring with fresh redirect evidence.
func (c *cluster) closeWatch() {
	if len(c.watch) > 0 {
		c.closed = append(c.closed, append([]int(nil), c.watch...))
	}
	c.watching = false
	c.alerted = false
	c.watch = nil
	c.related, c.nRelated, c.armIdx = nil, 0, 0
	c.redirects = 0
	c.clueHost, c.cluePayload, c.clueRedirects = "", 0, 0
	c.pinned = nil
	c.ib = nil
	c.cache = nil
}

// WatchedWCG describes one actively watched potential-infection WCG, for
// operator dashboards.
type WatchedWCG struct {
	ClusterID    int
	Client       netip.Addr
	Transactions int       // size of the potential-infection subset
	LastGrowth   time.Time // when the WCG last gained a transaction
	Hosts        int       // related hosts under watch
}

// watched returns snapshots of every potential-infection WCG this shard
// is growing and re-classifying.
func (s *shardState) watched() []WatchedWCG {
	var out []WatchedWCG
	for _, c := range s.clusters {
		if !c.watching {
			continue
		}
		out = append(out, WatchedWCG{
			ClusterID:    c.id,
			Client:       c.client,
			Transactions: len(c.watch),
			LastGrowth:   c.watchLast,
			Hosts:        c.nRelated,
		})
	}
	return out
}

// evictIdle drops every session cluster whose last activity precedes
// cutoff and returns how many were removed. process calls this every
// evictEvery transactions with a cutoff clusterTTL before the
// transaction's request time.
func (s *shardState) evictIdle(cutoff time.Time) int {
	return s.removeClusters(func(c *cluster) bool { return c.lastActive.Before(cutoff) })
}

// clusterFor assigns the transaction, whose keys are k, to a session
// cluster of its client: first by session ID, then by referrer linkage to
// a cluster's known hosts, then by recency within the session gap;
// otherwise a new cluster is opened (Section V-B's grouping heuristic).
func (s *shardState) clusterFor(tx *httpstream.Transaction, k wcg.Keys) *cluster {
	clusters := s.byClient[tx.ClientIP]

	if k.SID != "" {
		for i := len(clusters) - 1; i >= 0; i-- {
			if clusters[i].hasSession(k.SID) {
				return clusters[i]
			}
		}
	}
	for i := len(clusters) - 1; i >= 0; i-- {
		c := clusters[i]
		if k.Ref != "" && c.knows(k.Ref) {
			return c
		}
		if c.knows(k.Host) {
			return c
		}
	}
	if len(clusters) > 0 {
		last := clusters[len(clusters)-1]
		if tx.ReqTime.Sub(last.lastActive) <= sessionGap {
			return last
		}
	}
	return s.openCluster(tx.ClientIP)
}

// openCluster opens the client's cluster for the current transaction.
// It is numbered by that transaction, which no later one shares: an ID
// never comes back, however many clusters eviction removed.
func (s *shardState) openCluster(client netip.Addr) *cluster {
	return s.newCluster(s.idBase+s.idStep*int(s.txSeen-1), client)
}

// newCluster opens an empty session cluster and registers it with the
// shard.
func (s *shardState) newCluster(id int, client netip.Addr) *cluster {
	c := &cluster{id: id, client: client}
	c.hist = c.histBuf[:0]
	c.hosts = wcg.Table{Client: client, Names: c.nameBuf[:0]}
	c.seen = c.seenBuf[:0]
	s.clusters = append(s.clusters, c)
	s.byClient[client] = append(s.byClient[client], c)
	s.mx.clusters.Inc()
	return c
}
