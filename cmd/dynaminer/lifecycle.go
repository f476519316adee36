package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynaminer"
)

// journalFlags registers the shared journal durability and rotation knobs
// on fs and returns an opener for them.
func journalFlags(fs *flag.FlagSet) func(path string) (*dynaminer.Journal, error) {
	var (
		fsyncEvery    = fs.Int("journal-fsync-every", 0, "fsync the alert journal every N records (0 = rely on the OS)")
		fsyncInterval = fs.Duration("journal-fsync-interval", 0, "fsync the alert journal at least this often (0 = off)")
		maxBytes      = fs.Int64("journal-max-bytes", 0, "rotate the alert journal past this size (0 = never)")
	)
	return func(path string) (*dynaminer.Journal, error) {
		return dynaminer.NewJournalWith(path, dynaminer.JournalConfig{
			FsyncEvery:    *fsyncEvery,
			FsyncInterval: *fsyncInterval,
			MaxBytes:      *maxBytes,
		})
	}
}

// notifyLifecycle subscribes to the process lifecycle signals: SIGINT and
// SIGTERM request a graceful drain, SIGHUP requests a model reload. The
// returned stop function unsubscribes both channels.
func notifyLifecycle() (drain, reload chan os.Signal, stop func()) {
	drain = make(chan os.Signal, 2)
	signal.Notify(drain, os.Interrupt, syscall.SIGTERM)
	reload = make(chan os.Signal, 1)
	signal.Notify(reload, syscall.SIGHUP)
	return drain, reload, func() {
		signal.Stop(drain)
		signal.Stop(reload)
	}
}

// reloadOnHUP performs the SIGHUP hot-swap against any reloadable engine,
// reporting the outcome without ever taking the process down.
func reloadOnHUP(r dynaminer.ModelReloader, path string) {
	if path == "" {
		fmt.Fprintln(os.Stderr, "dynaminer: SIGHUP: no model path to reload")
		return
	}
	v, err := r.ReloadModelFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynaminer: SIGHUP reload rejected (still serving %s): %v\n", r.ModelVersion(), err)
		return
	}
	fmt.Printf("model reloaded from %s, now serving %s\n", path, v)
}

// runCheckpoint validates and summarizes a DMCP checkpoint artifact:
//
//	dynaminer checkpoint state.dmcp
func runCheckpoint(args []string) error {
	fs := flag.NewFlagSet("checkpoint", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("checkpoint: need exactly one checkpoint file")
	}
	info, err := dynaminer.ReadCheckpointInfoFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint:    %s\n", fs.Arg(0))
	fmt.Printf("format:        DMCP v%d\n", info.Version)
	fmt.Printf("model version: %s\n", info.ModelVersion)
	fmt.Printf("shards:        %d\n", info.Shards)
	fmt.Printf("transactions:  %d\n", info.TxSeen)
	fmt.Printf("clusters:      %d (%d watched)\n", info.Clusters, info.Watching)
	fmt.Printf("wcg txs:       %d\n", info.Transactions)
	return nil
}

// recoverMonitor restores a monitor's in-flight state from a checkpoint
// and journal before traffic flows, reporting what came back.
func recoverMonitor(m *dynaminer.Monitor, checkpointPath, journalPath string) error {
	watches, marked, err := m.Recover(checkpointPath, journalPath)
	if err != nil {
		return fmt.Errorf("recover %s: %w", checkpointPath, err)
	}
	if watches > 0 || marked > 0 {
		fmt.Printf("recovered %d watched clusters from %s (%d already-alerted marked via journal)\n",
			watches, checkpointPath, marked)
	}
	return nil
}

// paceSleep sleeps gap scaled by pace. A drain signal ends the sleep
// early (returning true); a reload signal runs onReload and keeps
// sleeping, so a paced replay hot-swaps promptly instead of at the next
// transaction.
func paceSleep(gap time.Duration, pace float64, drain, reload chan os.Signal, onReload func()) (interrupted bool) {
	d := time.Duration(float64(gap) / pace)
	if d <= 0 {
		return false
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		select {
		case <-drain:
			return true
		case <-reload:
			onReload()
		case <-timer.C:
			return false
		}
	}
}

// errDrained ends a capture scan that a drain signal interrupted.
var errDrained = errors.New("replay interrupted")

// stoppable reads a capture until the replay sets *stopped; the next read
// then fails, so the scan stops instead of running to the end of the
// capture.
type stoppable struct {
	r       io.Reader
	stopped *bool
}

func (s stoppable) Read(p []byte) (int, error) {
	if *s.stopped {
		return 0, errDrained
	}
	return s.r.Read(p)
}
