package detector

import (
	"net/netip"
	"runtime"
	"sort"
	"sync"

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
	// tracer is Config.Tracer, shared by every shard; nil when tracing is
	// off. Immutable after construction.
	tracer *obs.Tracer
}

// shard pairs one shard's detector state with the mutex that serializes
// it.
type shard struct {
	mu sync.Mutex
	st *shardState // guarded by mu
}

// New returns an Engine with cfg.Shards shards (zero selects
// runtime.GOMAXPROCS(0)) serving one trained model. A cluster's ID is the
// shard-local index of the transaction that opened it, strided across
// shards — of n shards, the cluster shard i's k-th transaction opens (k
// from 0) gets the ID i+k*n — so IDs never repeat for the engine's
// lifetime, engine-wide, and a one-shard engine numbers each cluster by
// its opening transaction's position in the stream.
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
		tracer: cfg.Tracer,
	}
	for i := range e.shards {
		e.shards[i] = &shard{st: newShardState(cfg, reg, e.models, i, n)}
	}
	return e
}

// ModelVersion returns the serving model's version (shared by all shards).
func (e *Engine) ModelVersion() ModelVersion { return e.models.current().version }

// ReloadModel loads a candidate through load and swaps it into every
// shard; any load error, loader panic, or failed validation is counted as
// a reload failure and leaves the serving model untouched.
func (e *Engine) ReloadModel(load func() (Scorer, error)) (ModelVersion, error) {
	return e.models.reload(load)
}

// ReloadModelFile reads a DMFB model file through the full semantic
// screens and hot-swaps it into every shard. On any failure — unreadable
// file, corrupt blob, failed screens, wrong feature dimensionality — the
// serving model keeps scoring and the failure is counted in
// dynaminer_model_reload_failures_total.
func (e *Engine) ReloadModelFile(path string) (ModelVersion, error) {
	return e.models.reloadFile(path)
}

// RollbackModel reinstates the previous model under its original version.
func (e *Engine) RollbackModel() (ModelVersion, error) { return e.models.rollback() }

// Registry returns the observability registry the engine's metrics live
// on (the one from Config.Metrics, or the engine's private registry).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Tracer returns the pipeline tracer every shard records into
// (Config.Tracer), nil when tracing is off. A front-end that begins its
// own traces (the proxy) takes it from here, so its spans and the
// engine's share one trace.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

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

// feedDepth is how many delivered transactions a shard worker's channel
// holds: room for a burst (a closing conversation's transactions are
// released together) without letting a worker fall far behind the feeder.
const feedDepth = 64

// fedTx is one delivered transaction on its way to its shard's worker.
type fedTx struct {
	seq int // delivery order
	tx  httpstream.Transaction
}

// raised is one alert beside the delivery order of the transaction that
// raised it.
type raised struct {
	seq   int
	alert Alert
}

// ProcessFeed moves a transaction stream through the engine while it is
// still being produced. feed calls deliver once per transaction (the
// pointer need only be valid during the call) and returns when the stream
// ends. One worker goroutine per shard, alive for the whole call, takes
// its shard's transactions in delivery order over a bounded channel, so
// verdicts land — and are journaled — while feed is still running, and
// distinct shards classify in parallel. ProcessFeed returns once every
// delivered transaction has been processed: the alerts, merged back in
// delivery order, and feed's error. Because every client's transactions
// live in exactly one shard and keep their relative order, the alerts are
// identical to calling Process once per delivered transaction.
func (e *Engine) ProcessFeed(feed func(deliver func(*httpstream.Transaction)) error) ([]Alert, error) {
	in := make([]chan fedTx, len(e.shards))
	out := make([][]raised, len(e.shards))
	var wg sync.WaitGroup
	for i, sh := range e.shards {
		in[i] = make(chan fedTx, feedDepth)
		wg.Add(1)
		go func(sh *shard, in <-chan fedTx, out *[]raised) {
			defer wg.Done()
			// process recovers per transaction; this guard covers what
			// runs outside its body (the trace commit in its deferred
			// finish). The fault is counted and the worker goes on with
			// the rest of its channel, so the feeder can never block on a
			// dead shard. process's deferred unlock has run by the time a
			// panic lands here, so the lock is free to take.
			drain := func() (done bool) {
				defer func() {
					if r := recover(); r != nil {
						sh.mu.Lock()
						sh.st.mx.panics.Inc()
						sh.mu.Unlock()
					}
				}()
				for f := range in {
					for _, a := range sh.process(f.tx, nil) {
						*out = append(*out, raised{seq: f.seq, alert: a})
					}
				}
				return true
			}
			for !drain() {
			}
		}(sh, in[i], &out[i])
	}
	seq := 0
	err := func() error {
		defer func() {
			for _, c := range in {
				close(c)
			}
		}()
		return feed(func(tx *httpstream.Transaction) {
			in[e.shardIndex(tx.ClientIP)] <- fedTx{seq: seq, tx: *tx}
			seq++
		})
	}()
	wg.Wait()
	return mergeRaised(out), err
}

// mergeRaised merges the workers' alerts, each list already in delivery
// order, into one list in delivery order (nil when there are none).
func mergeRaised(out [][]raised) []Alert {
	n := 0
	for _, o := range out {
		n += len(o)
	}
	if n == 0 {
		return nil
	}
	alerts := make([]Alert, 0, n)
	for len(alerts) < n {
		next := -1
		for i, o := range out {
			if len(o) > 0 && (next < 0 || o[0].seq < out[next][0].seq) {
				next = i
			}
		}
		alerts = append(alerts, out[next][0].alert)
		out[next] = out[next][1:]
	}
	return alerts
}

// ProcessAll moves a transaction slab through the engine: ProcessFeed over
// the slab, so shards run concurrently and the alerts come back in input
// order, identical to feeding Process one transaction at a time.
func (e *Engine) ProcessAll(txs []httpstream.Transaction) []Alert {
	alerts, _ := e.ProcessFeed(func(deliver func(*httpstream.Transaction)) error {
		for i := range txs {
			deliver(&txs[i])
		}
		return nil
	})
	return alerts
}

// Health reports the engine's readiness: quarantined while any shard
// holds a cluster with a quarantine strike, with the shared serving
// model's generation.
func (e *Engine) Health() obs.HealthStatus {
	st := obs.HealthStatus{ModelVersion: e.ModelVersion().String()}
	for _, sh := range e.shards {
		sh.mu.Lock()
		q := sh.st.quarantined()
		sh.mu.Unlock()
		st.Quarantined = st.Quarantined || q
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
