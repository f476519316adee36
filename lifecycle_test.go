package dynaminer

// PR-9 acceptance tests for the model lifecycle: the admin reload and
// rollback endpoints drive atomic hot-swaps end to end, checkpoints and
// journal replay rebuild a restarted monitor whose subsequent alerts are
// bit-identical, and Shutdown drains to stable storage.

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// postLifecycle POSTs an admin lifecycle endpoint and decodes the
// {"version": ..., "error": ...} reply.
func postLifecycle(t *testing.T, url string) (int, reloadReply) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply reloadReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("%s: undecodable reply: %v", url, err)
	}
	return resp.StatusCode, reply
}

// TestMonitorReloadEndpoints exercises the full admin control surface:
// method and argument validation, rejection of unreadable artifacts with
// the serving model untouched, a clean hot-swap via POST /reload, the
// configured default artifact path, and rollback semantics including the
// no-previous-model conflict.
func TestMonitorReloadEndpoints(t *testing.T) {
	eps, clf := obsFixture(t)
	next, err := TrainForMonitoring(eps, TrainConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	nextPath := filepath.Join(dir, "next.dmfb")
	if err := next.SaveBlobFile(nextPath); err != nil {
		t.Fatal(err)
	}

	m := NewMonitor(MonitorConfig{RedirectThreshold: 1}, clf)
	defer m.Close()
	addr, err := m.StartAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	v1 := m.ModelVersion()

	// Non-POST and missing-path requests are refused without a swap.
	if resp, err := http.Get(base + "/reload"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload = %v, %v; want 405", resp.StatusCode, err)
	}
	if code, _ := postLifecycle(t, base+"/reload"); code != http.StatusBadRequest {
		t.Fatalf("POST /reload with no path = %d, want 400", code)
	}
	// Rollback before any reload: nothing to reinstate.
	if code, _ := postLifecycle(t, base+"/rollback"); code != http.StatusConflict {
		t.Fatalf("POST /rollback with no previous model = %d, want 409", code)
	}
	// An unreadable artifact is rejected pre-swap; serving is untouched.
	if code, reply := postLifecycle(t, base+"/reload?path="+filepath.Join(dir, "missing.dmfb")); code != http.StatusUnprocessableEntity || reply.Error == "" {
		t.Fatalf("POST /reload missing file = %d %+v, want 422 with an error", code, reply)
	}
	if m.ModelVersion() != v1 {
		t.Fatalf("rejected reload moved the serving version: %s", m.ModelVersion())
	}

	// A clean hot-swap answers with the now-serving version.
	code, reply := postLifecycle(t, base+"/reload?path="+nextPath)
	if code != http.StatusOK {
		t.Fatalf("POST /reload = %d (%s), want 200", code, reply.Error)
	}
	v2 := m.ModelVersion()
	if reply.Version != v2.String() || v2 == v1 {
		t.Fatalf("reload reply %q, engine serves %s (was %s)", reply.Version, v2, v1)
	}
	if v2.CRC != next.FlatForest().BlobCRC() {
		t.Fatalf("served CRC %08x, artifact CRC %08x", v2.CRC, next.FlatForest().BlobCRC())
	}

	// Rollback reinstates v1 under its original identity; a second
	// rollback is its own inverse.
	if code, reply := postLifecycle(t, base+"/rollback"); code != http.StatusOK || reply.Version != v1.String() {
		t.Fatalf("POST /rollback = %d %+v, want 200 %s", code, reply, v1)
	}
	if code, reply := postLifecycle(t, base+"/rollback"); code != http.StatusOK || reply.Version != v2.String() {
		t.Fatalf("second rollback = %d %+v, want 200 %s", code, reply, v2)
	}

	// With a configured default artifact, a bare POST /reload works.
	m.SetModelPath(nextPath)
	if code, _ := postLifecycle(t, base+"/reload"); code != http.StatusOK {
		t.Fatalf("POST /reload with default path = %d, want 200", code)
	}
}

// TestMonitorCheckpointRecovery is the restart acceptance: a monitor
// checkpoints mid-stream and dies; a fresh monitor recovers from the
// checkpoint plus journal and its subsequent alerts are bit-identical to
// an uninterrupted run's.
func TestMonitorCheckpointRecovery(t *testing.T) {
	eps, clf := obsFixture(t)
	stream := obsStream(eps)
	mid := len(stream) / 2
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "state.dmcp")
	journalPath := filepath.Join(dir, "alerts.jsonl")
	cfg := MonitorConfig{RedirectThreshold: 1, Shards: 2}

	// The reference: one process, never interrupted.
	uninterrupted := NewMonitor(cfg, clf)
	uninterrupted.ProcessAll(stream[:mid])
	wantTail := uninterrupted.ProcessAll(stream[mid:])
	if len(wantTail) == 0 {
		t.Fatal("no post-checkpoint alerts; the recovery differential is vacuous")
	}

	// The doomed process: journals, checkpoints, dies.
	journal, err := NewJournalWith(journalPath, JournalConfig{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := cfg
	dcfg.Journal = journal
	doomed := NewMonitor(dcfg, clf)
	doomed.ProcessAll(stream[:mid])
	if err := doomed.WriteCheckpoint(ckptPath); err != nil {
		t.Fatal(err)
	}
	wantWatch := len(doomed.Watched())
	if v := doomed.Registry().CounterValue("dynaminer_checkpoints_total"); v != 1 {
		t.Fatalf("checkpoints counter = %v, want 1", v)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	// The artifact is introspectable without a restore.
	info, err := ReadCheckpointInfoFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Watching != wantWatch || info.TxSeen != int64(mid) || info.Shards != 2 {
		t.Fatalf("checkpoint info %+v; want %d watches, %d txs, 2 shards", info, wantWatch, mid)
	}
	if info.ModelVersion.CRC != clf.FlatForest().BlobCRC() {
		t.Fatalf("checkpoint model CRC %08x, classifier CRC %08x", info.ModelVersion.CRC, clf.FlatForest().BlobCRC())
	}

	// The restarted process.
	restored := NewMonitor(cfg, clf)
	watches, marked, err := restored.Recover(ckptPath, journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if watches != wantWatch {
		t.Fatalf("recovered %d watches, pre-kill process had %d", watches, wantWatch)
	}
	if marked < 0 || marked > len(stream) {
		t.Fatalf("implausible journal-replay mark count %d", marked)
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

	// Cold starts are not errors: missing artifacts recover to nothing.
	cold := NewMonitor(cfg, clf)
	if w, mk, err := cold.Recover(filepath.Join(dir, "no.dmcp"), filepath.Join(dir, "no.jsonl")); err != nil || w != 0 || mk != 0 {
		t.Fatalf("cold start = %d, %d, %v; want 0, 0, nil", w, mk, err)
	}
	// A corrupt checkpoint is an error, not a half-restore.
	data, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	badPath := filepath.Join(dir, "bad.dmcp")
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewMonitor(cfg, clf).Recover(badPath, ""); err == nil {
		t.Fatal("corrupt checkpoint recovered")
	}
}

// TestMonitorCheckpointerAndShutdown covers the background checkpointer
// and the graceful drain: Shutdown stops the checkpointer and admin,
// writes a final checkpoint, and syncs the journal.
func TestMonitorCheckpointerAndShutdown(t *testing.T) {
	eps, clf := obsFixture(t)
	stream := obsStream(eps)
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "state.dmcp")
	journalPath := filepath.Join(dir, "alerts.jsonl")

	journal, err := NewJournalWith(journalPath, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MonitorConfig{RedirectThreshold: 1, Shards: 2}
	cfg.Journal = journal
	m := NewMonitor(cfg, clf)
	m.StartCheckpointer(ckptPath, 20*time.Millisecond)
	m.StartCheckpointer(ckptPath, 20*time.Millisecond) // idempotent
	alerts := m.ProcessAll(stream)
	if len(alerts) == 0 {
		t.Fatal("seeded run raised no alerts")
	}

	// The periodic checkpointer lands at least one checkpoint on its own.
	deadline := time.Now().Add(5 * time.Second)
	for m.Registry().CounterValue("dynaminer_checkpoints_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never wrote a checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := m.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// The final checkpoint reflects the full stream.
	info, err := ReadCheckpointInfoFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.TxSeen != int64(len(stream)) {
		t.Fatalf("final checkpoint covers %d transactions, monitor saw %d", info.TxSeen, len(stream))
	}
	// The journal is complete on disk: one record per alert.
	recs, err := ReadJournalFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(alerts) {
		t.Fatalf("journal holds %d records for %d alerts", len(recs), len(alerts))
	}
	// Shutdown is idempotent and leaves the monitor closeable.
	if err := m.Shutdown(); err != nil {
		t.Fatal(err)
	}
	m.Close()
}
