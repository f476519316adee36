package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynaminer"
	"dynaminer/internal/ml"
)

// trainMonitorModel trains a monitoring model into dir and returns its
// path plus one infection capture from the corpus.
func trainMonitorModel(t *testing.T) (model, capture string) {
	t.Helper()
	corpus := writeTinyCorpus(t)
	model = filepath.Join(t.TempDir(), "m.dmfb")
	if err := run([]string{"train", "-corpus", corpus, "-model", model, "-monitor", "-trees", "8"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "infection-") {
			return model, filepath.Join(corpus, e.Name())
		}
	}
	t.Fatal("no infection capture")
	return "", ""
}

// TestStreamSIGINTDrainsJournal is the regression for the shutdown bug:
// an interrupted replay used to exit without ever closing the journal, so
// buffered records died with the process. Now SIGINT drains — the run
// returns cleanly, the journal file is complete and parseable, and the
// final checkpoint is valid.
func TestStreamSIGINTDrainsJournal(t *testing.T) {
	model, capture := trainMonitorModel(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "alerts.jsonl")
	ckpt := filepath.Join(dir, "state.dmcp")

	// A tiny pace factor stretches the capture's millisecond gaps into a
	// replay that far outlives the test, so only the signal can end it.
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"stream", "-model", model, "-threshold", "1",
			"-pace", "0.0001", "-journal", journal, "-journal-fsync-every", "1",
			"-checkpoint", ckpt, capture})
	}()
	time.Sleep(300 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("interrupted stream returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not drain on SIGINT")
	}

	// The journal closed cleanly: whatever was appended is parseable.
	if _, err := dynaminer.ReadJournalFile(journal); err != nil {
		t.Fatalf("journal corrupt after drain: %v", err)
	}
	// The drain wrote a final checkpoint, and the checkpoint subcommand
	// accepts it.
	if _, err := dynaminer.ReadCheckpointInfoFile(ckpt); err != nil {
		t.Fatalf("final checkpoint invalid: %v", err)
	}
	if err := run([]string{"checkpoint", ckpt}); err != nil {
		t.Fatalf("checkpoint subcommand: %v", err)
	}
}

// TestStreamSIGHUPReloads sends SIGHUP mid-replay and expects the stream
// to hot-swap its model and run to completion.
func TestStreamSIGHUPReloads(t *testing.T) {
	model, capture := trainMonitorModel(t)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"stream", "-model", model, "-threshold", "1",
			"-pace", "0.01", capture})
	}()
	time.Sleep(200 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("stream returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not finish after SIGHUP + SIGINT")
	}
}

// TestProxySIGTERMDrains covers the proxy leg of the shutdown bug: a
// terminated proxy must stop serving, write its final checkpoint, and
// leave a parseable journal behind.
func TestProxySIGTERMDrains(t *testing.T) {
	model, _ := trainMonitorModel(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "alerts.jsonl")
	ckpt := filepath.Join(dir, "state.dmcp")

	proxyReady = make(chan *http.Server, 1)
	defer func() { proxyReady = nil }()
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"proxy", "-model", model, "-listen", "127.0.0.1:0",
			"-journal", journal, "-checkpoint", ckpt})
	}()
	select {
	case <-proxyReady:
	case err := <-errCh:
		t.Fatalf("proxy exited early: %v", err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("terminated proxy returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("proxy did not drain on SIGTERM")
	}
	if _, err := dynaminer.ReadJournalFile(journal); err != nil {
		t.Fatalf("journal corrupt after drain: %v", err)
	}
	if _, err := dynaminer.ReadCheckpointInfoFile(ckpt); err != nil {
		t.Fatalf("final checkpoint invalid: %v", err)
	}
}

// postsModel writes a forest that scores a WCG infectious once it holds a
// POST (feature f27 at least 1) and benign before: a watch arms at its
// download without alerting, and its first call-back alerts.
func postsModel(t *testing.T) string {
	t.Helper()
	ds := &ml.Dataset{}
	for i := 0; i < 40; i++ {
		x := make([]float64, dynaminer.NumFeatures)
		x[26] = float64(i % 2)
		ds.X, ds.Y = append(ds.X, x), append(ds.Y, i%2)
	}
	forest, err := ml.TrainForest(ds, ml.ForestConfig{NumTrees: 4, MaxFeatures: dynaminer.NumFeatures, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "posts.dmfb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := forest.SaveFlatBlob(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestProxyRecoversLikeStream: a proxy restarted after a crash recovers
// the way stream does, from its checkpoint and its journal. An engine
// arms a watch on an infection episode and checkpoints; the episode's
// first call-back then alerts into the journal, and the engine is dropped
// without a drain (the crash). A proxy restarted on that checkpoint and
// journal must not alert on the victim's next call-back a second time,
// and its drain must leave a readable checkpoint.
func TestProxyRecoversLikeStream(t *testing.T) {
	model := postsModel(t)
	clf, err := dynaminer.LoadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "state.dmcp")
	journal := filepath.Join(dir, "alerts.jsonl")

	// The first synthetic infection whose first alert comes after its
	// clue, on a call-back.
	// Sized by GOMAXPROCS, as the proxy sizes its engine.
	cfg := dynaminer.MonitorConfig{RedirectThreshold: 1}
	var txs []dynaminer.Transaction
	alertAt := -1
	for _, ep := range dynaminer.Corpus(dynaminer.CorpusConfig{Seed: 4, Infections: 8, Benign: 1}) {
		m := dynaminer.NewMonitor(cfg, clf)
		for i, tx := range ep.Txs {
			if len(m.Process(tx)) > 0 {
				if m.Stats().CluesFired == 1 && tx.Method == http.MethodPost {
					txs, alertAt = ep.Txs, i
				}
				break
			}
		}
		if alertAt >= 0 {
			break
		}
	}
	if alertAt < 0 {
		t.Fatal("no episode alerts on a call-back after its clue")
	}
	// The proxy stamps its transactions with the wall clock: move the
	// episode so that its alert lands a second ago.
	shift := time.Until(txs[alertAt].ReqTime.Add(time.Second))
	for i := range txs {
		txs[i].ReqTime = txs[i].ReqTime.Add(-shift)
		txs[i].RespTime = txs[i].RespTime.Add(-shift)
	}

	j, err := dynaminer.NewJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	doomed := dynaminer.NewMonitor(cfg, clf)
	for _, tx := range txs[:alertAt] {
		if len(doomed.Process(tx)) > 0 {
			t.Fatal("the prefix alerted")
		}
	}
	if len(doomed.Watched()) != 1 {
		t.Fatal("the prefix armed no watch")
	}
	if err := doomed.WriteCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if len(doomed.Process(txs[alertAt])) != 1 {
		t.Fatal("the call-back did not alert")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "ok")
	}))
	defer upstream.Close()
	proxyReady = make(chan *http.Server, 1)
	defer func() { proxyReady = nil }()
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"proxy", "-model", model, "-listen", "127.0.0.1:0", "-threshold", "1",
			"-checkpoint", ckpt, "-journal", journal})
	}()
	var srv *http.Server
	select {
	case srv = <-proxyReady:
	case err := <-errCh:
		t.Fatalf("proxy exited early: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, upstream.URL+"/gate.php", strings.NewReader("id=1"))
	req.RemoteAddr = txs[alertAt].ClientIP.String() + ":49152"
	w := httptest.NewRecorder()
	srv.Handler.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("call-back relayed with status %d", w.Code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("proxy returned %v", err)
	}

	recs, err := dynaminer.ReadJournalFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		var clusters []int
		for _, r := range recs {
			clusters = append(clusters, r.ClusterID)
		}
		t.Fatalf("journal holds alerts for clusters %v, want only the one raised before the crash", clusters)
	}
	info, err := dynaminer.ReadCheckpointInfoFile(ckpt)
	if err != nil {
		t.Fatalf("drained checkpoint unreadable: %v", err)
	}
	if info.Watching != 1 || info.TxSeen != int64(alertAt+1) {
		t.Fatalf("drained checkpoint holds %d watches over %d transactions, want 1 over %d", info.Watching, info.TxSeen, alertAt+1)
	}
}

// TestCheckpointSubcommandReadsV2RefusesV1: the info subcommand prints
// the format of the detector's checked-in version 2 fixture, and refuses
// a version 1 header with the error that names it and the cold start.
func TestCheckpointSubcommandReadsV2RefusesV1(t *testing.T) {
	out := captureStdout(t, func() error { return run([]string{"checkpoint", "../../internal/detector/testdata/v2.dmcp"}) })
	if !strings.Contains(out, "format:        DMCP v2") {
		t.Errorf("checkpoint of the v2 fixture printed:\n%s\nwant format DMCP v2", out)
	}
	v1 := filepath.Join(t.TempDir(), "v1.dmcp")
	if err := os.WriteFile(v1, []byte("DMCP\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"checkpoint", v1})
	if err == nil || !strings.Contains(err.Error(), "format version 1, this build reads only version 2 (delete the file to cold-start)") {
		t.Fatalf("checkpoint of a version 1 header: %v, want the named version error", err)
	}
}

// TestCheckpointSubcommandErrors: a missing or garbage artifact is an
// error, as is a call without an argument.
func TestCheckpointSubcommandErrors(t *testing.T) {
	if err := run([]string{"checkpoint"}); err == nil {
		t.Fatal("checkpoint without a file must error")
	}
	if err := run([]string{"checkpoint", "/nonexistent.dmcp"}); err == nil {
		t.Fatal("missing checkpoint must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.dmcp")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"checkpoint", bad}); err == nil {
		t.Fatal("garbage checkpoint must error")
	}
}
