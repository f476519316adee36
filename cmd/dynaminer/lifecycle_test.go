package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynaminer"
	"dynaminer/internal/detector"
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

// TestCheckpointSubcommandReadsBothVersions: the info subcommand reads a
// version 1 artifact (the detector's checked-in fixture) and a version 2
// one the current engine writes.
func TestCheckpointSubcommandReadsBothVersions(t *testing.T) {
	v2 := filepath.Join(t.TempDir(), "v2.dmcp")
	if err := detector.New(detector.Config{Shards: 2}, nil).WriteCheckpointFile(v2); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"../../internal/detector/testdata/v1.dmcp": "DMCP v1",
		v2: "DMCP v2",
	} {
		out := captureStdout(t, func() error { return run([]string{"checkpoint", path}) })
		if !strings.Contains(out, "format:        "+want) {
			t.Errorf("checkpoint %s printed:\n%s\nwant format %s", path, out, want)
		}
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
