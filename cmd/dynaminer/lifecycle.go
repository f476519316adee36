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

// reloadOnHUP performs the SIGHUP hot-swap on the monitor's engine,
// reporting the outcome without ever taking the process down.
func reloadOnHUP(m *dynaminer.Monitor, path string) {
	if path == "" {
		fmt.Fprintln(os.Stderr, "dynaminer: SIGHUP: no model path to reload")
		return
	}
	v, err := m.ReloadModelFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynaminer: SIGHUP reload rejected (still serving %s): %v\n", m.ModelVersion(), err)
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

// monitorFlags are the flags the two long-running modes, stream and
// proxy, share: the model and clue threshold of the Monitor they serve
// from, and the deployment around it (journal, checkpoint, admin server,
// tracing).
type monitorFlags struct {
	model, adminAddr, journal, checkpoint *string
	threshold, traceSample                *int
	openJournal                           func(path string) (*dynaminer.Journal, error)
}

func addMonitorFlags(fs *flag.FlagSet) *monitorFlags {
	return &monitorFlags{
		model:       fs.String("model", "model.dmfb", "trained model path"),
		threshold:   fs.Int("threshold", 3, "clue redirect threshold L"),
		adminAddr:   fs.String("admin-addr", "", "serve /metrics, /healthz, /snapshot, /debug/pprof/ and the POST /reload and /rollback model controls on this address (empty = no admin server)"),
		journal:     fs.String("journal", "", "append one JSONL provenance record per alert to this file"),
		checkpoint:  fs.String("checkpoint", "", "recover watch state from this DMCP file on start and checkpoint to it periodically and on exit (empty = stateless)"),
		traceSample: fs.Int("trace-sample", 0, "record a pipeline trace for every Nth transaction (0 = tracing off; alert-raising transactions are always kept)"),
		openJournal: journalFlags(fs),
	}
}

// start builds the Monitor a long-running mode serves from and starts
// its deployment, in the order a restart needs: the journal opens, the
// checkpoint and the journal restore the in-flight state (alerts the
// journal already holds are not raised again), then the checkpointer
// (every ckptInterval; zero selects 30 s) and the admin server start.
// shutdown drains it once intake has stopped: a final checkpoint, the
// journal synced and closed. On error nothing is left running. Every mode
// sizes the engine by GOMAXPROCS, so a checkpoint one mode writes restores
// into the other on the same host.
func (f *monitorFlags) start(ckptInterval time.Duration) (m *dynaminer.Monitor, shutdown func() error, err error) {
	clf, err := dynaminer.LoadFile(*f.model)
	if err != nil {
		return nil, nil, err
	}
	cfg := dynaminer.MonitorConfig{RedirectThreshold: *f.threshold}
	if *f.traceSample > 0 {
		// The tracer shares the engine's registry so that its stage
		// histograms are served on the Monitor's /metrics.
		reg := dynaminer.NewMetricsRegistry()
		cfg.Metrics = reg
		cfg.Tracer = dynaminer.NewTracer(reg, *f.traceSample)
	}
	var j *dynaminer.Journal
	if *f.journal != "" {
		if j, err = f.openJournal(*f.journal); err != nil {
			return nil, nil, err
		}
		cfg.Journal = j
	}
	m = dynaminer.NewMonitor(cfg, clf)
	m.SetModelPath(*f.model)
	shutdown = func() error {
		err := m.Shutdown()
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if err := f.deploy(m, ckptInterval); err != nil {
		_ = shutdown()
		return nil, nil, err
	}
	return m, shutdown, nil
}

// deploy recovers m and starts its background writer and admin server.
func (f *monitorFlags) deploy(m *dynaminer.Monitor, ckptInterval time.Duration) error {
	if *f.checkpoint != "" {
		watches, marked, err := m.Recover(*f.checkpoint, *f.journal)
		if err != nil {
			return fmt.Errorf("recover %s: %w", *f.checkpoint, err)
		}
		if watches > 0 || marked > 0 {
			fmt.Printf("recovered %d watched clusters from %s (%d already-alerted marked via journal)\n",
				watches, *f.checkpoint, marked)
		}
		m.StartCheckpointer(*f.checkpoint, ckptInterval)
	}
	if *f.adminAddr != "" {
		addr, err := m.StartAdmin(*f.adminAddr)
		if err != nil {
			return err
		}
		fmt.Printf("admin endpoints on http://%s/ (metrics, healthz, snapshot, debug/pprof, reload, rollback)\n", addr)
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
