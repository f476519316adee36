package detector

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dynaminer/internal/ml"
	"dynaminer/internal/obs"
)

// ModelVersion identifies the exact forest a classification came from, so
// journal records stay replayable across hot-swaps and restarts.
type ModelVersion struct {
	// Gen is the monotonic swap generation within one engine lifetime: the
	// construction-time model is generation 1 and every successful reload
	// increments it. Generations restart when the process does; CRC is the
	// cross-restart identity.
	Gen uint64
	// CRC is the CRC-32 (IEEE) of the model's canonical DMFB blob encoding
	// (ml.FlatForest.BlobCRC) — stable for the same trained forest across
	// the blob and the in-memory form — and zero for scorers
	// with no blob form (test doubles, extraction-only engines).
	CRC uint32
}

// String renders the version the way journal records and /metrics label
// it: "g<generation>-<crc hex>".
func (v ModelVersion) String() string { return fmt.Sprintf("g%d-%08x", v.Gen, v.CRC) }

// modelRef is one immutable (scorer, version) pair. Watches pin the ref
// that armed them, so an episode is scored by one forest end-to-end no
// matter how many swaps happen while it grows.
type modelRef struct {
	scorer  Scorer // nil in extraction-only mode
	version ModelVersion
}

// modelHolder owns the serving model behind an atomic pointer. All shards
// of an Engine share one holder: a swap is a single pointer store,
// visible to every shard's next watch arming without taking any shard
// lock, while in-flight watches keep their pinned ref. The previous ref is
// retained for instant rollback.
type modelHolder struct {
	cur atomic.Pointer[modelRef]

	mu     sync.Mutex
	prev   *modelRef // guarded by mu; rollback target (nil until a swap)
	gen    uint64    // guarded by mu; last allocated generation
	active string    // guarded by mu; version label currently set to 1

	reloads        *obs.Counter
	reloadFailures *obs.Counter
	generation     *obs.Gauge
	versions       *obs.GaugeVec
}

// newModelHolder wraps the construction-time model as generation 1 and
// registers the model-lifecycle metric family on reg.
func newModelHolder(reg *obs.Registry, model Scorer) *modelHolder {
	h := &modelHolder{
		reloads: reg.Counter("dynaminer_model_reloads_total",
			"Successful model hot-swaps into running engines."),
		reloadFailures: reg.Counter("dynaminer_model_reload_failures_total",
			"Model reloads rejected before the swap (load error, failed validation, panicking loader)."),
		generation: reg.Gauge("dynaminer_model_generation_total",
			"Serving model's swap generation (1 = the construction-time model)."),
		versions: reg.GaugeVec("dynaminer_model_version_total",
			"Serving model version: the active version's series is 1, swapped-out versions drop to 0.",
			"version"),
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gen = 1
	ref := &modelRef{scorer: model, version: ModelVersion{Gen: 1, CRC: scorerCRC(model)}}
	h.cur.Store(ref)
	h.noteActiveLocked(ref.version)
	return h
}

// scorerCRC derives the model identity of a scorer: the blob CRC for flat
// forests, zero for anything without a canonical artifact.
func scorerCRC(model Scorer) uint32 {
	if ff, ok := model.(*ml.FlatForest); ok && ff != nil {
		return ff.BlobCRC()
	}
	return 0
}

// current returns the serving model reference. Never nil; lock-free, so
// the arming path costs one atomic load.
func (h *modelHolder) current() *modelRef { return h.cur.Load() }

// noteActiveLocked flips the version gauge family to v; the caller holds
// mu.
func (h *modelHolder) noteActiveLocked(v ModelVersion) {
	if h.active != "" {
		h.versions.With(h.active).Set(0)
	}
	h.active = v.String()
	h.versions.With(h.active).Set(1)
	h.generation.Set(int64(v.Gen))
}

// validateCandidate runs the pre-swap screens that do not require a file:
// the candidate must exist and must score the same feature dimensionality
// as the serving model, so a mis-dimensioned forest is rejected before it
// can panic a shard's score-time guards. (File-format and semantic-screen
// validation happens in the loader, before this is reached.)
func validateCandidate(cur, candidate Scorer) error {
	if candidate == nil {
		return fmt.Errorf("detector: reload: nil model")
	}
	type dims interface{ NumFeatures() int }
	cd, cok := candidate.(dims)
	sd, sok := cur.(dims)
	if cok && sok && cd.NumFeatures() != sd.NumFeatures() {
		return fmt.Errorf("detector: reload: candidate scores %d features, serving model scores %d",
			cd.NumFeatures(), sd.NumFeatures())
	}
	return nil
}

// swap validates candidate and atomically replaces the serving model,
// returning the new version. On rejection the serving model is untouched
// and the failure is counted.
func (h *modelHolder) swap(candidate Scorer) (ModelVersion, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.cur.Load()
	if err := validateCandidate(cur.scorer, candidate); err != nil {
		h.reloadFailures.Inc()
		return cur.version, err
	}
	h.gen++
	ref := &modelRef{scorer: candidate, version: ModelVersion{Gen: h.gen, CRC: scorerCRC(candidate)}}
	h.prev = cur
	h.cur.Store(ref)
	h.reloads.Inc()
	h.noteActiveLocked(ref.version)
	return ref.version, nil
}

// reload obtains a candidate from load — typically a file read through the
// full semantic screens of ml.LoadFlatBlob — and swaps it in. A load error, a
// panicking loader, or a failed validation leaves the serving model
// untouched and counts one reload failure; serving never stops.
func (h *modelHolder) reload(load func() (Scorer, error)) (ModelVersion, error) {
	candidate, err := func() (c Scorer, err error) {
		defer func() {
			if r := recover(); r != nil {
				c, err = nil, fmt.Errorf("detector: reload: loader panicked: %v", r)
			}
		}()
		return load()
	}()
	if err != nil {
		h.reloadFailures.Inc()
		return h.current().version, err
	}
	return h.swap(candidate)
}

// reloadFile reloads from a DMFB model file read through the full
// semantic screens.
func (h *modelHolder) reloadFile(path string) (ModelVersion, error) {
	return h.reload(func() (Scorer, error) {
		ff, err := ml.LoadModelFile(path)
		if err != nil {
			return nil, err // a bare nil, not a typed-nil Scorer
		}
		return ff, nil
	})
}

// rollback atomically reinstates the previous model under its original
// version identity, so watches still pinned to it match the serving
// version again. The swapped-out model becomes the new rollback target,
// making rollback its own inverse.
func (h *modelHolder) rollback() (ModelVersion, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.cur.Load()
	if h.prev == nil {
		return cur.version, fmt.Errorf("detector: rollback: no previous model")
	}
	ref := h.prev
	h.prev = cur
	h.cur.Store(ref)
	h.noteActiveLocked(ref.version)
	return ref.version, nil
}

// matchPinned resolves a checkpointed watch's pinned version against the
// live holder. A serving or rollback model with the same blob CRC keeps
// the pin — the forest bytes are identical, so scoring stays bit-identical
// even though generation counters restarted — while an unknown CRC re-pins
// the watch to the serving model (the recorded forest is gone; scoring
// with the current one beats dropping the watch).
func (h *modelHolder) matchPinned(crc uint32) *modelRef {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.cur.Load()
	if cur.version.CRC == crc {
		return cur
	}
	if h.prev != nil && h.prev.version.CRC == crc {
		return h.prev
	}
	return cur
}
