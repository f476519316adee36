package detector

import (
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
)

// Engine is the streaming detector: one serving surface over cfg.Shards
// independently locked shards, so concurrent capture points (e.g. the
// proxy's request handlers) classify in parallel. Every transaction is
// routed by a hash of its client IP, so all of a client's session
// clusters live in exactly one shard and each client's alert stream is
// the same at any shard count — sharding changes throughput, not
// verdicts. Each shard is guarded by its own mutex; there is no
// cross-shard state, so no lock is ever held while another is taken.
//
// Engine is safe for concurrent use.
type Engine struct {
	shards []*shard
	// models is the holder every shard serves from: one atomic swap
	// reaches all shards at once, while each shard's in-flight watches
	// keep their pinned version. Immutable after construction.
	models *modelHolder
	// reg is the registry every shard's metrics live on: Config.Metrics,
	// or a private one so the /metrics totals still sum the per-shard
	// cells when the caller exports nothing. Immutable after construction.
	reg *obs.Registry
	// slabs pools ProcessAll's per-call scratch (the per-transaction result
	// table and per-shard index groups), so steady-state slab ingestion
	// stops allocating scaffolding proportional to the slab size.
	slabs sync.Pool
}

// slabScratch is ProcessAll's pooled working state.
type slabScratch struct {
	results [][]Alert
	groups  [][]int
}

// shard pairs one shard's detector state with the mutex that serializes
// it.
type shard struct {
	mu sync.Mutex
	st *shardState // guarded by mu
}

// New returns an Engine with cfg.Shards shards (zero selects
// runtime.GOMAXPROCS(0)) serving one trained model. Cluster IDs are
// strided across shards — shard i of n allocates i, i+n, i+2n, ... — so
// they stay unique engine-wide, and a one-shard engine numbers its
// clusters 0, 1, 2, ... in arrival order.
func New(cfg Config, model Scorer) *Engine {
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.Journal != nil {
		cfg.Journal.PublishMetrics(reg)
	}
	e := &Engine{
		shards: make([]*shard, n),
		models: newModelHolder(reg, model),
		reg:    reg,
	}
	for i := range e.shards {
		e.shards[i] = &shard{st: newShardState(cfg, reg, e.models, i, n)}
	}
	return e
}

// ModelVersion returns the serving model's version (shared by all shards).
func (e *Engine) ModelVersion() ModelVersion { return e.models.current().version }

// SwapModel validates candidate and atomically swaps it into every shard:
// watches armed before the swap keep scoring through their pinned
// version, watches armed after it pick up the new one. A rejected
// candidate (nil, wrong feature dimensionality) leaves serving untouched.
func (e *Engine) SwapModel(candidate Scorer) (ModelVersion, error) {
	return e.models.swap(candidate)
}

// ReloadModel loads a candidate through load and swaps it into every
// shard; any load error, loader panic, or failed validation is counted as
// a reload failure and leaves the serving model untouched.
func (e *Engine) ReloadModel(load func() (Scorer, error)) (ModelVersion, error) {
	return e.models.reload(load)
}

// ReloadModelFile reads a model file (DMFB blob or JSON, sniffed) through
// the full semantic screens and hot-swaps it into every shard. On any
// failure — unreadable file, corrupt blob, failed screens, wrong feature
// dimensionality — the serving model keeps scoring and the failure is
// counted in dynaminer_model_reload_failures_total.
func (e *Engine) ReloadModelFile(path string) (ModelVersion, error) {
	return e.models.reloadFile(path)
}

// RollbackModel reinstates the previous model under its original version.
func (e *Engine) RollbackModel() (ModelVersion, error) { return e.models.rollback() }

// NumShards returns the number of engine shards.
func (e *Engine) NumShards() int { return len(e.shards) }

// Registry returns the observability registry the engine's metrics live
// on (the one from Config.Metrics, or the engine's private registry).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// shardIndex routes a client address to its owning shard: FNV-1a over the
// 16-byte address, so IPv4 and its v6-mapped form land together and the
// assignment is stable for the engine's lifetime.
func (e *Engine) shardIndex(client netip.Addr) int {
	if len(e.shards) == 1 {
		return 0
	}
	b := client.As16()
	h := uint32(2166136261)
	for _, x := range b {
		h ^= uint32(x)
		h *= 16777619
	}
	return int(h % uint32(len(e.shards)))
}

func (e *Engine) shardFor(client netip.Addr) *shard {
	return e.shards[e.shardIndex(client)]
}

// Process ingests one transaction under its client's shard lock and
// returns any alerts it triggers. With a Tracer configured the engine
// begins and finishes its own per-transaction trace.
func (e *Engine) Process(tx httpstream.Transaction) []Alert {
	return e.shardFor(tx.ClientIP).process(tx, nil)
}

// ProcessTraced is Process with an ambient trace (the proxy threading its
// request trace through): the engine's spans nest under the caller's, and
// the caller finishes the trace. A nil at is exactly Process.
func (e *Engine) ProcessTraced(tx httpstream.Transaction, at *obs.ActiveTrace) []Alert {
	return e.shardFor(tx.ClientIP).process(tx, at)
}

// process is the one way a transaction reaches a shard's pipeline. It owns
// the shard lock, the transaction's trace — begun here when the caller
// brought none and a Tracer is configured, rooted at a detector.process
// span either way — and the last-resort panic guard. shardState.process
// already converts per-cluster faults into quarantine; the guard catches
// what escapes it (a fault before cluster attribution, or in the recovery
// path itself), so a panic on one shard can never unwind into the proxy's
// request handler and kill the process. The faulting transaction's alerts
// are discarded, its root span is flagged SpanError, and its trace is
// closed and committed like any other: the tree an operator most wants is
// never the one that goes missing.
//
// An alert-raising transaction promotes its trace to always-keep, and the
// journaled record's TraceID resolves back to the tree.
func (sh *shard) process(tx httpstream.Transaction, at *obs.ActiveTrace) (alerts []Alert) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.st
	owned := at == nil && st.tracer != nil
	if owned {
		at = st.tracer.BeginIn(&st.ownAT)
	}
	root := at.StartSpan(st.stg.process)
	at.SetArg(root, int32(st.idBase)) // shard attribution
	st.at, st.atRoot = at, root
	defer func() {
		if r := recover(); r != nil {
			alerts = nil
			st.mx.panics.Inc()
			at.Annotate(root, obs.SpanError)
		}
		if len(alerts) > 0 {
			at.MarkAlert()
		}
		at.EndSpan(root)
		st.at, st.atRoot = nil, -1
		if owned {
			st.tracer.FinishIn(at)
		}
	}()
	return st.process(tx)
}

// ProcessAll moves a transaction slab through the engine: transactions
// are grouped by owning shard, the groups run concurrently, and the
// per-transaction alert slices are merged back in input order. Because
// every client's transactions live in exactly one shard and keep their
// relative order, the merged alert stream is identical to feeding Process
// one transaction at a time.
func (e *Engine) ProcessAll(txs []httpstream.Transaction) []Alert {
	if len(txs) == 0 {
		return nil
	}
	ws, _ := e.slabs.Get().(*slabScratch)
	if ws == nil {
		ws = &slabScratch{}
	}
	if cap(ws.results) < len(txs) {
		ws.results = make([][]Alert, len(txs))
	}
	results := ws.results[:len(txs)]
	for i := range results {
		results[i] = nil
	}
	if len(e.shards) == 1 {
		for i := range txs {
			results[i] = e.shards[0].process(txs[i], nil)
		}
	} else {
		if cap(ws.groups) < len(e.shards) {
			ws.groups = make([][]int, len(e.shards))
		}
		groups := ws.groups[:len(e.shards)]
		for i := range groups {
			groups[i] = groups[i][:0]
		}
		for i := range txs {
			si := e.shardIndex(txs[i].ClientIP)
			groups[si] = append(groups[si], i)
		}
		var wg sync.WaitGroup
		for si, idxs := range groups {
			if len(idxs) == 0 {
				continue
			}
			wg.Add(1)
			go func(sh *shard, idxs []int) {
				defer wg.Done()
				defer func() {
					// process recovers per transaction; this guard covers
					// what runs outside its body (the trace commit in its
					// deferred finish), so one shard's fault cannot leave
					// the WaitGroup hanging. process's deferred unlock has
					// run by the time a panic lands here, so the lock is
					// free to take.
					if r := recover(); r != nil {
						sh.mu.Lock()
						sh.st.mx.panics.Inc()
						sh.mu.Unlock()
					}
				}()
				for _, i := range idxs {
					results[i] = sh.process(txs[i], nil)
				}
			}(e.shards[si], idxs)
		}
		wg.Wait()
	}
	n := 0
	for _, a := range results {
		n += len(a)
	}
	var alerts []Alert
	if n > 0 {
		alerts = make([]Alert, 0, n)
		for _, a := range results {
			alerts = append(alerts, a...)
		}
	}
	for i := range results {
		results[i] = nil // release alert references before pooling
	}
	e.slabs.Put(ws)
	return alerts
}

// Health reports readiness conditions OR-ed across every shard (any
// shard over budget, quarantined or shedding marks the whole engine),
// with the shared serving model's generation.
func (e *Engine) Health() obs.HealthStatus {
	st := obs.HealthStatus{ModelVersion: e.ModelVersion().String()}
	for _, sh := range e.shards {
		sh.mu.Lock()
		h := sh.st.health()
		sh.mu.Unlock()
		st.Degraded = st.Degraded || h.Degraded
		st.Quarantined = st.Quarantined || h.Quarantined
		st.Shedding = st.Shedding || h.Shedding
	}
	return st
}

// Stats returns the engine counters aggregated across all shards.
func (e *Engine) Stats() Stats {
	var total Stats
	for _, sh := range e.shards {
		sh.mu.Lock()
		total.add(sh.st.stats())
		sh.mu.Unlock()
	}
	return total
}

// Watched returns snapshots of every potential-infection WCG currently
// being grown, merged across shards and ordered by cluster ID.
func (e *Engine) Watched() []WatchedWCG {
	var out []WatchedWCG
	for _, sh := range e.shards {
		sh.mu.Lock()
		out = append(out, sh.st.watched()...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ClusterID < out[j].ClusterID })
	return out
}

// EvictIdle drops every session cluster whose last activity precedes
// cutoff, across all shards, and returns how many were removed. Each
// shard also sweeps inline every few hundred transactions with the
// configured TTL; deployments may call this on their own schedule.
func (e *Engine) EvictIdle(cutoff time.Time) int {
	evicted := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		evicted += sh.st.evictIdle(cutoff)
		sh.mu.Unlock()
	}
	return evicted
}
