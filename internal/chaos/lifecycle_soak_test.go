package chaos

import (
	"bytes"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dynaminer/internal/detector"
	"dynaminer/internal/ml"
	"dynaminer/internal/obs"
)

// trainSoakForest trains a small 37-feature forest on seeded random
// vectors, so the lifecycle soak swaps between two genuinely different
// models with distinct blob CRCs.
func trainSoakForest(t *testing.T, seed int64) *ml.FlatForest {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := &ml.Dataset{}
	for i := 0; i < 60; i++ {
		x := make([]float64, 37)
		for j := range x {
			x[j] = rng.Float64() * 10
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, i%2)
	}
	f, err := ml.TrainForest(ds, ml.ForestConfig{NumTrees: 5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// versionCRC extracts the blob CRC from a journal record's
// "g<gen>-<crc>" model version label.
func versionCRC(t *testing.T, version string) uint32 {
	t.Helper()
	i := strings.LastIndexByte(version, '-')
	if i < 0 {
		t.Fatalf("unparseable model version %q", version)
	}
	crc, err := strconv.ParseUint(version[i+1:], 16, 32)
	if err != nil {
		t.Fatalf("unparseable model version %q: %v", version, err)
	}
	return uint32(crc)
}

// TestLifecycleSoak is the model-lifecycle acceptance soak: the seeded
// corpus streams through a sharded engine while reloads land mid-stream —
// valid swaps, corrupt artifacts, erroring and panicking loaders,
// rollbacks — with the journal fsyncing through a sync-faulting sink.
// It asserts zero crashes, reload-counter conservation, and that every
// journaled alert re-scores bit-identically against the exact model
// version recorded on it.
func TestLifecycleSoak(t *testing.T) {
	stream, _ := soakStream(t)
	cfg := detector.Config{RedirectThreshold: 1, ScoreThreshold: 0.05, Shards: 4}

	modelA := trainSoakForest(t, 101)
	modelB := trainSoakForest(t, 102)
	if modelA.BlobCRC() == modelB.BlobCRC() {
		t.Fatal("soak models share a CRC; the version attribution check is vacuous")
	}
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.dmfb")
	pathB := filepath.Join(dir, "b.dmfb")
	pathCorrupt := filepath.Join(dir, "corrupt.dmfb")
	for path, blob := range map[string][]byte{
		pathA:       modelA.AppendFlatBlob(nil),
		pathB:       modelB.AppendFlatBlob(nil),
		pathCorrupt: CorruptBlob(7, modelB.AppendFlatBlob(nil)),
	} {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var sink bytes.Buffer
	flaky := NewFlakyWriter(5, &sink, 0, 0)
	flaky.FailSyncs(0.5)
	journal := obs.NewJournalWriterWith(flaky, obs.JournalConfig{FsyncEvery: 1})
	soakCfg := cfg
	soakCfg.Journal = journal
	eng := detector.New(soakCfg, modelA)

	loader := NewFlakyLoader(9, func() (detector.Scorer, error) {
		return ml.LoadModelFile(pathB)
	}, 0.4, 0.3)

	// Reload actions injected every few hundred transactions, cycling
	// through every failure shape the reload path must absorb.
	wantReloads, wantFailures := 0, 0
	action := 0
	reloadAt := 80
	alerts := 0
	for i, tx := range stream {
		alerts += len(eng.Process(tx)) // must never crash
		if i%reloadAt != reloadAt-1 {
			continue
		}
		switch action % 5 {
		case 0: // clean swap to B
			if _, err := eng.ReloadModelFile(pathB); err != nil {
				t.Fatalf("valid reload failed: %v", err)
			}
			wantReloads++
		case 1: // corrupt artifact: rejected pre-swap
			if _, err := eng.ReloadModelFile(pathCorrupt); err == nil {
				t.Fatal("corrupt reload succeeded")
			}
			wantFailures++
		case 2: // flaky loader: error, panic, or success — all absorbed
			before := eng.ModelVersion()
			if _, err := eng.ReloadModel(loader.Load); err != nil {
				wantFailures++
				if eng.ModelVersion() != before {
					t.Fatal("failed reload moved the serving version")
				}
			} else {
				wantReloads++
			}
		case 3: // rollback to the previous model
			if _, err := eng.RollbackModel(); err != nil {
				t.Fatalf("rollback failed mid-soak: %v", err)
			}
		case 4: // clean swap back to A
			if _, err := eng.ReloadModelFile(pathA); err != nil {
				t.Fatalf("valid reload failed: %v", err)
			}
			wantReloads++
		}
		action++
	}
	if action < 10 {
		t.Fatalf("soak injected only %d reload actions", action)
	}

	// Conservation: nothing lost, nothing crashed, every counter accounted.
	st := eng.Stats()
	if st.Transactions != len(stream) {
		t.Fatalf("engine lost transactions: %d of %d", st.Transactions, len(stream))
	}
	if st.Panics != 0 {
		t.Fatalf("lifecycle soak tripped %d engine panics", st.Panics)
	}
	reg := eng.Registry()
	if n := reg.CounterValue("dynaminer_model_reloads_total"); int(n) != wantReloads {
		t.Fatalf("reloads = %d, injected %d", n, wantReloads)
	}
	if n := reg.CounterValue("dynaminer_model_reload_failures_total"); int(n) != wantFailures {
		t.Fatalf("reload failures = %d, injected %d", n, wantFailures)
	}
	if wantFailures == 0 || loader.Faults() == 0 {
		t.Fatal("reload fault injection vacuous")
	}
	// The sync-faulting sink never cost a record: appends succeed even
	// when fsync fails, and both outcomes are counted.
	if journal.Drops() != 0 || int(journal.Writes()) != alerts {
		t.Fatalf("journal writes=%d drops=%d, want %d/0", journal.Writes(), journal.Drops(), alerts)
	}
	if journal.SyncFailures() == 0 || journal.Syncs() == 0 {
		t.Fatalf("sync fault injection vacuous: syncs=%d failures=%d", journal.Syncs(), journal.SyncFailures())
	}

	// Every journaled alert re-scores bit-identically against the exact
	// model version recorded on it — across every swap and rollback.
	recs, err := obs.ReadJournal(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != alerts {
		t.Fatalf("journal holds %d records, engine alerted %d times", len(recs), alerts)
	}
	byCRC := map[uint32]*ml.FlatForest{modelA.BlobCRC(): modelA, modelB.BlobCRC(): modelB}
	seen := map[uint32]int{}
	for i, rec := range recs {
		crc := versionCRC(t, rec.ModelVersion)
		forest, ok := byCRC[crc]
		if !ok {
			t.Fatalf("record %d scored by unknown model version %s", i, rec.ModelVersion)
		}
		seen[crc]++
		if got := forest.Score(rec.Features); math.Float64bits(got) != math.Float64bits(rec.Score) {
			t.Fatalf("record %d does not re-score against %s: %x vs %x",
				i, rec.ModelVersion, math.Float64bits(got), math.Float64bits(rec.Score))
		}
	}
	if len(seen) < 2 {
		t.Fatalf("all %d alerts scored by one model; mid-stream swaps never pinned (%v)", len(recs), seen)
	}
	t.Logf("lifecycle soak: %d alerts across versions %v, %d reloads, %d rejected, %d sync faults",
		alerts, seen, wantReloads, wantFailures, journal.SyncFailures())
}

// TestCrashRecoverySoak is the kill-and-restart acceptance: the corpus
// runs uninterrupted in one engine and crash-interrupted in another —
// checkpointed mid-stream, abandoned (the kill -9), restored into a
// fresh engine — and the post-recovery alert stream must be bit-identical
// to the uninterrupted run's.
func TestCrashRecoverySoak(t *testing.T) {
	stream, _ := soakStream(t)
	mid := len(stream) / 2
	cfg := detector.Config{RedirectThreshold: 1, ScoreThreshold: 0.05, Shards: 4}
	model := trainSoakForest(t, 103)

	uninterrupted := detector.New(cfg, model)
	uninterrupted.ProcessAll(stream[:mid])
	wantTail := uninterrupted.ProcessAll(stream[mid:])
	if len(wantTail) == 0 {
		t.Fatal("no post-checkpoint alerts; the recovery differential is vacuous")
	}

	// The doomed process: runs to the checkpoint, checkpoints, dies.
	doomed := detector.New(cfg, model)
	doomed.ProcessAll(stream[:mid])
	ckptPath := filepath.Join(t.TempDir(), "state.dmcp")
	if err := doomed.WriteCheckpointFile(ckptPath); err != nil {
		t.Fatal(err)
	}
	wantWatch := len(doomed.Watched())
	doomed = nil // kill -9

	// A checkpoint torn by the crash is rejected, never half-restored.
	data, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detector.New(cfg, model).RestoreCheckpoint(CorruptBlob(11, data)); err == nil {
		t.Fatal("corrupted checkpoint restored")
	}

	restored := detector.New(cfg, model)
	if _, err := restored.RestoreCheckpointFile(ckptPath); err != nil {
		t.Fatal(err)
	}
	if got := len(restored.Watched()); got != wantWatch {
		t.Fatalf("restored engine watches %d clusters, pre-kill process watched %d", got, wantWatch)
	}
	gotTail := restored.ProcessAll(stream[mid:])
	if len(gotTail) != len(wantTail) {
		t.Fatalf("post-recovery alerts = %d, uninterrupted run raised %d", len(gotTail), len(wantTail))
	}
	for i := range wantTail {
		w, g := wantTail[i], gotTail[i]
		if math.Float64bits(w.Score) != math.Float64bits(g.Score) ||
			w.Client != g.Client || w.ClusterID != g.ClusterID || !w.Time.Equal(g.Time) ||
			w.TriggerHost != g.TriggerHost || w.TriggerPayload != g.TriggerPayload {
			t.Fatalf("post-recovery alert %d diverged:\n got %+v\nwant %+v", i, g, w)
		}
	}
	t.Logf("crash recovery soak: %d post-recovery alerts bit-identical across kill/restart", len(wantTail))
}

// TestMidWindowCrashRecovery covers the weaker guarantee for a crash
// BETWEEN checkpoints: transactions since the checkpoint are lost, but
// the restored engine must come back cleanly, journal-replay must mark
// already-raised alerts so they are not re-fired on the next growth, and
// the recovered process must keep serving without a crash.
func TestMidWindowCrashRecovery(t *testing.T) {
	stream, _ := soakStream(t)
	mid := len(stream) / 2
	window := mid + len(stream)/4 // crash point past the checkpoint
	cfg := detector.Config{RedirectThreshold: 1, ScoreThreshold: 0.05, Shards: 4}
	model := trainSoakForest(t, 104)

	var sink bytes.Buffer
	jcfg := cfg
	jcfg.Journal = obs.NewJournalWriter(&sink)
	doomed := detector.New(jcfg, model)
	headAlerts := len(doomed.ProcessAll(stream[:mid]))
	ckpt := doomed.AppendCheckpoint(nil)
	windowAlerts := len(doomed.ProcessAll(stream[mid:window])) // journaled but not checkpointed
	doomed = nil                                               // kill -9 mid-window
	if windowAlerts == 0 {
		t.Fatal("no alerts between checkpoint and crash; the replay-dedup leg is vacuous")
	}

	// Restart: restore the checkpoint, then replay the journal so alerts
	// raised after the checkpoint was cut are marked and not re-fired by
	// the next non-download growth.
	restored := detector.New(cfg, model)
	if _, err := restored.RestoreCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJournal(&sink)
	if err != nil {
		t.Fatalf("journal unreadable after mid-window crash: %v", err)
	}
	if len(recs) != headAlerts+windowAlerts {
		t.Fatalf("journal holds %d records, doomed process raised %d", len(recs), headAlerts+windowAlerts)
	}
	marked := 0
	for _, rec := range recs {
		addr, err := netip.ParseAddr(rec.Client)
		if err != nil {
			t.Fatalf("journal record client %q: %v", rec.Client, err)
		}
		if restored.MarkAlerted(addr, rec.ClusterID) {
			marked++
		}
	}

	// The recovered process keeps serving the rest of the corpus — the
	// mid-window transactions replay, the tail streams fresh — without a
	// crash and without losing anything.
	restored.ProcessAll(stream[mid:])
	st := restored.Stats()
	if st.Panics != 0 {
		t.Fatalf("recovered engine tripped %d panics", st.Panics)
	}
	// The Transactions stat counts live intake only; the checkpointed head
	// is restored into txSeen (eviction cadence) without inflating it.
	if st.Transactions != len(stream)-mid {
		t.Fatalf("recovered engine saw %d live transactions, want %d", st.Transactions, len(stream)-mid)
	}
	t.Logf("mid-window crash: %d journaled alerts replayed, %d marked on live clusters, engine healthy",
		len(recs), marked)
}
