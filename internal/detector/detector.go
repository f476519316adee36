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
	// DisableIncremental forces every classification onto the from-scratch
	// path: rebuild the watched WCG with FromTransactions and re-extract
	// all 37 features on each update. The incremental path produces
	// bit-identical scores and alerts (pinned by the differential tests);
	// the from-scratch path is the oracle those tests and the benchmark's
	// correctness check compare it against.
	DisableIncremental bool
	// Now supplies time for the classify-latency measurement and the span
	// stamps; nil selects time.Now. Only consulted when Metrics or Tracer
	// is set, so replays with both off never observe the wall clock. The
	// clock moves latency histograms and span stamps only: verdicts,
	// journal records and counters are a function of the input alone.
	Now func() time.Time
	// Metrics selects the observability registry the engine's counters,
	// the watched gauge and the classify/score latency histograms are
	// registered on (every shard shares it). nil keeps a
	// private registry: the Stats view still works, nothing is exported,
	// and no timing instrumentation (clock reads) is enabled.
	Metrics *obs.Registry
	// Journal, when set, receives one provenance record per alert: the
	// arming clue, the WCG shape, the exact feature vector and score the
	// classifier used, and whether the cluster was quarantined. Journal
	// failures never affect detection.
	Journal *obs.Journal
	// Tracer, when set, records one span tree per transaction —
	// detector.process → detector.classify → features.incremental or
	// features.rebuild → ml.score → journal.write — with shard and
	// quarantine attribution on the spans, sampled and
	// promoted per the tracer's config. Every shard shares it. nil
	// disables tracing entirely (the hot path pays one nil check).
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
	// scoreThreshold is the ERF's decision point: an alert fires when the
	// averaged vote for a watched WCG exceeds it.
	scoreThreshold = 0.5
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
	// on long-lived sessions; later transactions are dropped and counted.
	maxClusterTxs = 4096
	// clusterTTL evicts session clusters idle longer than this, inline
	// every evictEvery transactions and on each janitor sweep.
	clusterTTL = time.Hour
	// evictEvery is how many processed transactions pass between inline
	// idle-cluster sweeps.
	evictEvery = 512
)

// DefaultTrustedVendors is the weed-out list NewMonitor and NewProxy fall
// back to when their config names none: well-known application stores
// and software repositories.
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

	// hist and watch are the frozen view Graph builds from: the cluster's
	// history at alert time, shared with the cluster (which only ever
	// appends to it), and a copy of the watch's indices into it.
	hist  []entry
	watch []int
}

// Graph builds the potential-infection WCG as it stood at alert time:
// wcg.FromTransactions over the watch, byte-identical (WriteJSON) to the
// finalized form of the graph the engine scored. Every call builds a
// fresh graph from the alert's frozen view of its watch, so a caller that
// needs it twice keeps the result; nothing the engine does later changes
// what Graph returns. A zero Alert has no graph: nil.
func (a Alert) Graph() *wcg.WCG {
	if len(a.watch) == 0 {
		return nil
	}
	subset := make([]httpstream.Transaction, len(a.watch))
	for i, j := range a.watch {
		subset[i] = a.hist[j].tx
	}
	return wcg.FromTransactions(subset)
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
	// Dropped counts transactions discarded because their cluster's
	// history held maxClusterTxs (4096) transactions.
	Dropped int
	// Rebuilds counts classifications served by the from-scratch path:
	// all of them when DisableIncremental is set, otherwise only watches
	// whose transactions arrived out of request-time order, plus every
	// classification of a quarantined cluster.
	Rebuilds int
	// Panics counts per-transaction faults the engine recovered from: a
	// panic while processing or classifying, or a scorer returning a
	// non-finite probability. The transaction's alerts are discarded; the
	// engine itself keeps serving.
	Panics int
	// Quarantined counts clusters placed in quarantine after their first
	// fault: the incremental cache is dropped and every later
	// classification of that cluster rebuilds from scratch. A second
	// fault evicts the cluster outright (counted in Evicted).
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

// txMeta caches per-transaction linkage facts so the backward chain walk
// does not re-parse bodies.
type txMeta struct {
	host      string
	refHost   string
	locHost   string
	sniff     []string // redirect target hosts sniffed from the body
	refRecent bool     // the referring host was active within clickGap
	download  bool     // 2xx response with a likely-malicious payload type
	post      bool
	payload   wcg.PayloadClass
}

// entry is one transaction of a cluster's history beside its linkage facts.
type entry struct {
	tx   httpstream.Transaction
	meta txMeta
}

// hostSeen is what a cluster knows of one host: when it last served the
// cluster, or served == false for a host seen only as a Referer.
type hostSeen struct {
	last   time.Time
	served bool
}

// histCap is a new cluster's history capacity: most benign sessions run
// to a dozen transactions, so two allocations cover them.
const histCap = 8

// txKeys are the header facts cluster routing and linkage read, taken
// from a transaction once.
type txKeys struct {
	host string // lowercased Host, or the server address
	ref  string // host of the Referer URL
	sid  string // SessionID
}

// cluster is one session's state: the host table and session set that
// route transactions to it, and its history.
type cluster struct {
	id         int
	client     netip.Addr
	hist       []entry
	hosts      map[string]hostSeen
	sessions   map[string]struct{} // made on the first session ID
	lastActive time.Time
	redirects  int // running count of redirect evidence (sum-of-all rule)

	watching  bool
	alerted   bool
	watch     []int // indices into hist forming the potential-infection WCG
	snapshot  []int // the watch set at the moment the clue fired
	watchLast time.Time
	related   map[string]struct{}
	preWatch  map[string]struct{} // hosts seen before the clue fired

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

	// Incremental classification state for the current watch: the live
	// WCG, its feature cache, and how many watch entries have been fed.
	// incBroken pins the from-scratch fallback for the rest of a watch
	// whose transactions arrived out of request-time order.
	ib        *wcg.IncrementalBuilder
	cache     *features.Cache
	fed       int
	incBroken bool

	// faults is the cluster's position on the quarantine ladder: 0 is
	// healthy, 1 is quarantined (incremental cache dropped, every
	// classification rebuilds from scratch), and a second fault evicts
	// the cluster.
	faults int
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
	// collide: shard i of n allocates i, i+n, i+2n, ...
	idBase, idStep int
	// scratch is the graph workspace shared by every cluster's feature
	// cache (safe: the shard is serialized); fvec is the reusable
	// classification vector and subset the reusable rebuild slab
	// (wcg.FromTransactions copies its input, so reuse is safe).
	scratch *graph.Scratch
	fvec    []float64
	subset  []httpstream.Transaction
	// rebuild is the reusable feature cache for the from-scratch classify
	// fallback: Reset against each rebuilt WCG, it derives the vector with
	// the shard's scratch instead of allocating fresh featurization state
	// per rebuild. Bit-identical to features.Extract by the Reset
	// contract.
	rebuild features.Cache
	// now is the clock behind the latency histograms and span stamps;
	// timed enables its reads, set when Metrics (latency histograms) or
	// Tracer (span stamps) asks for them.
	now   func() time.Time
	timed bool
	// txSeen counts transactions this shard ingested, driving the inline
	// eviction cadence. Unlike the metrics cell it is checkpointed and
	// restored, so a recovered engine sweeps at the same transaction
	// offsets as an uninterrupted run — a prerequisite for bit-identical
	// post-recovery alerts.
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
// and model holder. cfg already carries its defaults. Clock reads follow
// cfg.Metrics, not reg: the engine's private default registry exports
// nothing, so it turns no timing on.
func newShardState(cfg Config, reg *obs.Registry, models *modelHolder, idBase, idStep int) *shardState {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &shardState{
		cfg:      cfg,
		models:   models,
		byClient: make(map[netip.Addr][]*cluster),
		mx:       newEngineMetrics(reg),
		journal:  cfg.Journal,
		idBase:   idBase,
		idStep:   idStep,
		scratch:  graph.NewScratch(),
		now:      now,
		timed:    cfg.Metrics != nil || cfg.Tracer != nil,
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
func (s *shardState) process(tx httpstream.Transaction) []Alert {
	s.mx.transactions.Inc()
	s.txSeen++
	if s.txSeen%evictEvery == 0 {
		s.evictIdle(tx.ReqTime.Add(-clusterTTL))
	}
	host := txHost(&tx)
	if s.trusted(host) {
		s.mx.weeded.Inc()
		return nil
	}
	k := keysOf(&tx, host)
	return s.processInCluster(s.clusterFor(&tx, k), tx, k)
}

// txHost is the host a transaction is clustered under: its lowercased
// Host header, or the server address when the request named none.
func txHost(tx *httpstream.Transaction) string {
	if tx.Host == "" {
		return tx.ServerIP.String()
	}
	return strings.ToLower(tx.Host)
}

// keysOf reads the header facts routing and linkage need; host is
// txHost(tx).
func keysOf(tx *httpstream.Transaction, host string) txKeys {
	return txKeys{host: host, ref: refererHost(tx), sid: tx.SessionID()}
}

// processInCluster runs the per-cluster pipeline under a panic guard:
// a fault anywhere past cluster assignment discards the transaction's
// alerts and advances the cluster on the quarantine ladder instead of
// unwinding through the caller.
func (s *shardState) processInCluster(c *cluster, tx httpstream.Transaction, k txKeys) (alerts []Alert) {
	defer func() {
		if r := recover(); r != nil {
			alerts = nil
			s.at.Annotate(s.atRoot, obs.SpanError|obs.SpanQuarantined)
			s.quarantine(c)
		}
	}()
	if len(c.hist) >= maxClusterTxs {
		// The session is still active even though its history is capped:
		// keep lastActive fresh so TTL eviction does not destroy the
		// cluster (and any watched WCG) mid-session, and make the drop
		// visible in the counters.
		c.lastActive = tx.ReqTime
		if !s.restoring {
			s.mx.dropped.Inc()
		}
		return nil
	}
	meta := c.buildMeta(&tx, k)
	idx := len(c.hist)
	c.hist = append(c.hist, entry{tx: tx, meta: meta})
	c.noteActivity(&tx, meta, k.sid)

	// A watched WCG that stopped growing is closed; later clues in the
	// same session open a fresh potential-infection WCG with fresh
	// redirect evidence.
	if c.watching && tx.ReqTime.Sub(c.watchLast) > watchIdle {
		s.closeWatch(c)
	}

	// Accumulate redirect evidence (the sum-of-all-redirections rule).
	if tx.StatusCode >= 300 && tx.StatusCode < 400 {
		c.redirects++
	}
	c.redirects += len(meta.sniff)

	// Infection clue: enough redirect evidence followed by a download of a
	// likely-malicious payload type. The clue triggers the backward
	// construction of a potential-infection WCG around the chain.
	if meta.download && !c.watching && c.redirects >= s.cfg.RedirectThreshold {
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
		c.clueHost, c.cluePayload, c.clueRedirects = meta.host, meta.payload, c.redirects
		c.preWatch = make(map[string]struct{}, len(c.hosts))
		for h := range c.hosts {
			c.preWatch[h] = struct{}{}
		}
		c.buildPotentialWCG(idx)
		c.snapshot = append([]int(nil), c.watch...)
		c.watchLast = tx.ReqTime
		return s.classify(c, idx, meta)
	}
	if !c.watching {
		return nil
	}
	// Watched WCG: related transactions grow it and trigger
	// re-classification; unrelated browsing is left out, as the paper's
	// session-ID/referrer grouping prescribes.
	if !c.relatedTx(meta) {
		return nil
	}
	c.include(idx)
	c.watchLast = tx.ReqTime
	return s.classify(c, idx, meta)
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
// fault: drop the (possibly poisoned) incremental cache and pin every
// later classification of this cluster to the from-scratch rebuild path.
// Second fault: the rebuild did not cure it — evict the cluster outright
// so its state cannot fault a third time.
func (s *shardState) quarantine(c *cluster) {
	s.mx.panics.Inc()
	c.faults++
	if c.faults == 1 {
		c.ib, c.cache, c.fed = nil, nil, 0
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
// The hot path is incremental: new watch transactions are appended to the
// cluster's live WCG and the cached feature vector is refreshed in place,
// so the per-update cost no longer re-copies the cumulative subset,
// rebuilds the graph, or re-derives all 37 features. An alert copies no
// graph: it keeps a frozen view of the watch and builds its WCG only on
// request (Alert.Graph). The from-scratch path remains as the explicit
// fallback — selected by Config.DisableIncremental or by out-of-order
// arrival — and produces bit-identical scores and alerts.
func (s *shardState) classify(c *cluster, idx int, meta txMeta) []Alert {
	if s.restoring {
		return nil // checkpoint replay rebuilds structure, never verdicts
	}
	ref := c.pinned
	if ref == nil {
		// Defensive: classify is only reached inside a watch, which pins at
		// arming; an unpinned call scores with the serving model.
		ref = s.models.current()
	}
	if ref.scorer == nil {
		return nil // extraction-only mode (training-set construction)
	}
	at := s.at
	// A traced engine is always timed, so every classify span boundary
	// reuses a latency-metric clock reading — tracing adds stamps to
	// reads the instrumented path was already taking, not new reads. The
	// classify span is ended explicitly at each return (no defer): a
	// panic unwinds past it, and the root span's pop-through close
	// finalizes it at the end-to-end instant.
	var start time.Time
	var cs int
	if s.timed {
		start = s.now()
		cs = at.StartSpanAt(s.stg.classify, start)
	} else {
		cs = at.StartSpan(s.stg.classify)
	}
	if c.faults > 0 {
		at.Annotate(cs, obs.SpanQuarantined)
	}
	var x []float64
	var g *wcg.WCG // the graph scored: the live WCG or the rebuild
	incremental := false
	fs := -1 // the feature span, left open for scoreVector to close at its t0
	if s.incrementalEligible(c) {
		// The features.incremental span records only genuine attempts: a
		// cluster pinned to the rebuild path never opens it, so a trace's
		// stage set reflects the path actually taken. A mid-feed fallback
		// (out-of-order arrival) leaves the attempt flagged SpanError next
		// to the rebuild span that served the verdict. The attempt begins
		// at the same instant the classify measurement does (only flag
		// annotations separate them), so the stamp is shared.
		fs = at.StartSpanAt(s.stg.featInc, start)
		v, ok := s.incrementalVector(c, fs)
		if ok {
			x, g, incremental = v, c.ib.Live(), true
		} else {
			at.Annotate(fs, obs.SpanError)
			at.EndSpan(fs)
			fs = -1
		}
	}
	if incremental {
		at.Annotate(cs, obs.SpanIncremental)
	} else {
		fs = at.StartSpan(s.stg.featRebuild)
		s.subset = s.subset[:0]
		for _, i := range c.watch {
			s.subset = append(s.subset, c.hist[i].tx)
		}
		g = wcg.FromTransactions(s.subset)
		s.rebuild.Reset(g, s.scratch)
		x = s.cachedVector(&s.rebuild, fs)
		s.mx.rebuilds.Inc()
		at.Annotate(cs, obs.SpanRebuild)
	}
	score := s.scoreVector(ref.scorer, x, fs)
	s.mx.classifications.Inc()
	var endT time.Time
	if s.timed {
		endT = s.now()
		elapsed := endT.Sub(start)
		if incremental {
			s.mx.classifyIncremental.Observe(elapsed.Seconds())
		} else {
			s.mx.classifyRebuild.Observe(elapsed.Seconds())
		}
	}
	// A scorer emitting a non-finite probability is as broken as one
	// that panics: NaN compares false with every threshold and would
	// either always or never alert. Treat it as a fault so the recover
	// guard quarantines the cluster instead of corrupting verdicts.
	if math.IsNaN(score) || math.IsInf(score, 0) {
		panic("detector: scorer returned a non-finite probability")
	}
	if score <= scoreThreshold {
		at.EndSpanAt(cs, endT)
		return nil
	}
	if c.alerted && !meta.download {
		at.EndSpanAt(cs, endT)
		return nil
	}
	c.alerted = true
	s.mx.alerts.Inc()
	trigger := meta
	if !meta.download {
		// First crossing on a non-download update (s.g. a C&C call-back):
		// attribute the alert to the latest download in the WCG.
		for i := len(c.watch) - 1; i >= 0; i-- {
			if m := c.hist[c.watch[i]].meta; m.download {
				trigger = m
				break
			}
		}
	}
	// Transactions that never got a response (s.g. upstream timeouts in
	// extraction-only replays) carry a zero RespTime; fall back to the
	// request time so alerts are always stamped.
	when := c.hist[idx].tx.RespTime
	if when.IsZero() {
		when = c.hist[idx].tx.ReqTime
	}
	// The alert's frozen view: the history prefix is shared, since the
	// cluster only appends past it, and the watch indices are copied,
	// since a re-armed watch is cut back and rebuilt in place.
	alert := Alert{
		Time:           when,
		Client:         c.client,
		ClusterID:      c.id,
		Score:          score,
		TriggerHost:    trigger.host,
		TriggerPayload: trigger.payload,
		WCGOrder:       g.Order(),
		WCGSize:        g.Size(),
		hist:           c.hist[:len(c.hist):len(c.hist)],
		watch:          append([]int(nil), c.watch...),
	}
	s.journalAlert(c, ref, &alert, g.StructVersion(), x, incremental)
	at.EndSpan(cs)
	return []Alert{alert}
}

// scoreVector runs the watch's pinned model, timing the ensemble's share
// of classify wall time when the engine is timed. prev is the still-open
// feature-extraction span (-1 when none): its end and the score span's
// start share one clock reading, as do the score span's end and the
// score latency metric.
func (s *shardState) scoreVector(model Scorer, x []float64, prev int) float64 {
	if !s.timed {
		s.at.EndSpan(prev)
		ss := s.at.StartSpan(s.stg.score)
		score := model.Score(x)
		s.at.EndSpan(ss)
		return score
	}
	t0 := s.now()
	s.at.EndSpanAt(prev, t0)
	ss := s.at.StartSpanAt(s.stg.score, t0)
	score := model.Score(x)
	end := s.now()
	s.at.EndSpanAt(ss, end)
	s.mx.score.Observe(end.Sub(t0).Seconds())
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
		Threshold:        scoreThreshold,
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

// incrementalVector feeds the watch set's new transactions into the
// cluster's live WCG and returns the refreshed cached feature vector
// (valid until the next classify call). It reports false when the
// incremental path is disabled or has fallen back for this watch, in
// which case the caller rebuilds from scratch.
func (s *shardState) incrementalVector(c *cluster, span int) ([]float64, bool) {
	if !s.incrementalEligible(c) {
		return nil, false
	}
	if c.ib == nil {
		c.ib = wcg.NewIncrementalBuilder()
		c.cache = features.NewCache(c.ib.Live(), s.scratch)
		c.fed = 0
	}
	for _, i := range c.watch[c.fed:] {
		if !c.ib.Append(c.hist[i].tx) {
			// Out-of-order arrival voids the byte-identity contract with
			// the batch builder: abandon the live graph and serve the rest
			// of this watch from scratch.
			c.incBroken = true
			c.ib, c.cache = nil, nil
			return nil, false
		}
		c.fed++
	}
	return s.cachedVector(c.cache, span), true
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

// incrementalEligible reports whether the incremental feature path may be
// attempted for this cluster. It can still fall back mid-feed (out-of-
// order arrival), but an ineligible cluster — incremental disabled,
// fallen back earlier, or quarantined — goes straight to the rebuild.
func (s *shardState) incrementalEligible(c *cluster) bool {
	return !s.cfg.DisableIncremental && !c.incBroken && c.faults == 0
}

// ClueSubsets replays a recorded transaction stream with the clue
// heuristic only (no classifier) and returns, per session cluster whose
// clue fired, both the potential-infection subset at clue time and the
// fully-grown subset at stream end. The offline training stage uses these
// so the classifier learns on exactly the WCG representations — early and
// mature — that the on-the-wire stage scores.
func ClueSubsets(cfg Config, txs []httpstream.Transaction) [][]httpstream.Transaction {
	cfg.Shards = 1 // one shard holds every cluster, in arrival order
	eng := New(cfg, nil)
	for _, tx := range txs {
		eng.Process(tx)
	}
	sh := eng.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out [][]httpstream.Transaction
	collect := func(c *cluster, idxs []int) {
		subset := make([]httpstream.Transaction, 0, len(idxs))
		for _, i := range idxs {
			subset = append(subset, c.hist[i].tx)
		}
		out = append(out, subset)
	}
	for _, c := range sh.st.clusters {
		for _, w := range c.closed {
			collect(c, w)
		}
		if !c.watching {
			continue
		}
		collect(c, c.snapshot)
		if len(c.watch) > len(c.snapshot) {
			collect(c, c.watch)
		}
	}
	return out
}

// buildMeta derives the linkage facts of a transaction against the
// cluster's current state. Must run before noteActivity.
func (c *cluster) buildMeta(tx *httpstream.Transaction, k txKeys) txMeta {
	m := txMeta{
		host:    k.host,
		refHost: k.ref,
		post:    tx.Method == "POST",
		payload: wcg.ClassifyPayload(tx.URI, tx.ContentType),
	}
	if tx.IsRedirect() {
		m.locHost = wcg.HostOfURL(tx.Location())
		if m.locHost == "" {
			m.locHost = k.host
		}
	}
	if m.payload.CarriesRedirects() {
		for _, target := range wcg.SniffBodyRedirects(tx.Body) {
			if th := wcg.HostOfURL(target); th != "" {
				m.sniff = append(m.sniff, th)
			}
		}
	}
	m.download = m.payload.IsExploitType() && tx.StatusCode >= 200 && tx.StatusCode < 300
	if m.refHost != "" {
		if h := c.hosts[m.refHost]; h.served && tx.ReqTime.Sub(h.last) <= clickGap {
			m.refRecent = true
		}
	}
	return m
}

// noteActivity updates the cluster's host table and session set; sid is
// the transaction's SessionID.
func (c *cluster) noteActivity(tx *httpstream.Transaction, m txMeta, sid string) {
	if m.refHost != "" {
		if _, ok := c.hosts[m.refHost]; !ok {
			c.hosts[m.refHost] = hostSeen{}
		}
	}
	ts := tx.RespTime
	if ts.IsZero() {
		ts = tx.ReqTime
	}
	c.hosts[m.host] = hostSeen{last: ts, served: true}
	if sid != "" {
		if c.sessions == nil {
			c.sessions = make(map[string]struct{})
		}
		c.sessions[sid] = struct{}{}
	}
	c.lastActive = tx.ReqTime
}

// buildPotentialWCG walks back in time from the triggering download and
// collects the transactions linked to it: traffic to related hosts,
// redirects into related hosts (Location or sniffed body targets), and
// fast referrer continuations. It runs to a fixpoint so multi-hop chains
// resolve regardless of discovery order, and it looks back at most
// watchIdle so a chain reusing hosts hours later does not absorb stale
// traffic.
func (c *cluster) buildPotentialWCG(trigger int) {
	c.related = make(map[string]struct{})
	include := make([]bool, trigger+1)
	include[trigger] = true
	c.addRelated(c.hist[trigger].meta)
	oldest := c.hist[trigger].tx.ReqTime.Add(-watchIdle)
	first := trigger
	for first > 0 && !c.hist[first-1].tx.ReqTime.Before(oldest) {
		first--
	}
	for changed := true; changed; {
		changed = false
		for i := trigger - 1; i >= first; i-- {
			if include[i] {
				continue
			}
			if m := c.hist[i].meta; c.relatedTx(m) {
				include[i] = true
				c.addRelated(m)
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
func (c *cluster) relatedTx(m txMeta) bool {
	if _, ok := c.related[m.host]; ok {
		return true
	}
	if m.locHost != "" {
		if _, ok := c.related[m.locHost]; ok {
			return true
		}
	}
	for _, t := range m.sniff {
		if _, ok := c.related[t]; ok {
			return true
		}
	}
	if m.refRecent && m.refHost != "" {
		if _, ok := c.related[m.refHost]; ok {
			return true
		}
	}
	// Post-download call-backs go to hosts never seen before the download
	// dynamics (Section II-D).
	if m.post && c.preWatch != nil {
		if _, seen := c.preWatch[m.host]; !seen {
			return true
		}
	}
	return false
}

// addRelated extends the related-host set with a transaction's hosts.
func (c *cluster) addRelated(m txMeta) {
	c.related[m.host] = struct{}{}
	if m.locHost != "" {
		c.related[m.locHost] = struct{}{}
	}
	for _, t := range m.sniff {
		c.related[t] = struct{}{}
	}
	if m.refRecent && m.refHost != "" {
		c.related[m.refHost] = struct{}{}
	}
}

// include appends a related transaction to the watched WCG.
func (c *cluster) include(idx int) {
	c.watch = append(c.watch, idx)
	c.addRelated(c.hist[idx].meta)
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
	c.snapshot = nil
	c.related = nil
	c.preWatch = nil
	c.redirects = 0
	c.clueHost, c.cluePayload, c.clueRedirects = "", 0, 0
	c.pinned = nil
	c.ib = nil
	c.cache = nil
	c.fed = 0
	c.incBroken = false
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
			Hosts:        len(c.related),
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

func refererHost(tx *httpstream.Transaction) string {
	return wcg.HostOfURL(tx.Referer())
}

// clusterFor assigns the transaction to a session cluster of its client:
// first by session ID, then by referrer linkage to a cluster's known
// hosts, then by recency within the session gap; otherwise a new cluster
// is opened (Section V-B's grouping heuristic).
func (s *shardState) clusterFor(tx *httpstream.Transaction, k txKeys) *cluster {
	clusters := s.byClient[tx.ClientIP]

	if k.sid != "" {
		for i := len(clusters) - 1; i >= 0; i-- {
			if _, ok := clusters[i].sessions[k.sid]; ok {
				return clusters[i]
			}
		}
	}
	for i := len(clusters) - 1; i >= 0; i-- {
		c := clusters[i]
		if k.ref != "" {
			if _, ok := c.hosts[k.ref]; ok {
				return c
			}
		}
		if _, ok := c.hosts[k.host]; ok {
			return c
		}
	}
	if len(clusters) > 0 {
		last := clusters[len(clusters)-1]
		if tx.ReqTime.Sub(last.lastActive) <= sessionGap {
			return last
		}
	}
	return s.newCluster(s.idBase+s.idStep*len(s.clusters), tx.ClientIP)
}

// newCluster opens an empty session cluster and registers it with the
// shard.
func (s *shardState) newCluster(id int, client netip.Addr) *cluster {
	c := &cluster{
		id:     id,
		client: client,
		hist:   make([]entry, 0, histCap),
		hosts:  make(map[string]hostSeen),
	}
	s.clusters = append(s.clusters, c)
	s.byClient[client] = append(s.byClient[client], c)
	s.mx.clusters.Inc()
	return c
}
