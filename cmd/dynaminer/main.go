// Command dynaminer is the train / classify / stream CLI over the library:
//
//	dynaminer train  -corpus dir/ -model model.dmfb [-monitor]
//	dynaminer train  -synthetic -model model.dmfb [-monitor]
//	dynaminer classify -model model.dmfb capture.pcap...
//	dynaminer stream   -model model.dmfb -threshold 3 capture.pcap
//	dynaminer features capture.pcap
//	dynaminer summarize capture.pcap
//	dynaminer dataset -corpus dir/ -out features.csv
//	dynaminer proxy -model model.dmfb -listen 127.0.0.1:8080
//	dynaminer journal alerts.jsonl
//	dynaminer checkpoint state.dmcp
//	dynaminer metrics -addr 127.0.0.1:9090
//	dynaminer trace -addr 127.0.0.1:9090 [-id N]
//	dynaminer model info model.dmfb
//
// "stream" and "proxy" take -admin-addr to serve the observability
// endpoints (Prometheus /metrics, /healthz, JSON /snapshot, /debug/pprof/,
// and the POST /reload and /rollback model-lifecycle controls) and
// -journal to append one provenance record per alert to a JSONL file, with
// -journal-fsync-every / -journal-fsync-interval / -journal-max-bytes
// tuning its durability and rotation; "journal" renders such a file, and
// "metrics" fetches and renders a live admin server's /snapshot.
//
// Both also take -trace-sample N to record a pipeline trace for every Nth
// transaction (alert-raising ones are always kept); the admin server then
// serves the ring on /trace, and "trace" fetches it as Chrome trace-event
// JSON (loadable in chrome://tracing or Perfetto), or as one span tree by
// -id.
//
// Both long-running modes serve from one Monitor and share its start-up
// and drain: -checkpoint recovers watch state on start (the journal marks
// the alerts already raised, so none fires twice) and checkpoints
// periodically; SIGINT/SIGTERM stop intake, write a final checkpoint and
// flush the journal; SIGHUP hot-swaps the model in place. The
// "checkpoint" subcommand summarizes such an artifact.
//
// "train -corpus" expects a directory produced by tracegen (pcap files and
// a manifest.csv); "-synthetic" trains directly on a generated corpus
// without touching disk. Training writes the DMFB blob, the one model
// format every -model flag reads. "classify" gives one offline verdict per capture;
// "stream" replays a capture through the on-the-wire engine and prints
// alerts as they fire.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynaminer"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dynaminer:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: dynaminer <train|classify|stream|features|summarize|dataset|verify|proxy|journal|checkpoint|metrics|trace|model> [flags]")
	}
	switch args[0] {
	case "model":
		return runModel(args[1:])
	case "train":
		return runTrain(args[1:])
	case "classify":
		return runClassify(args[1:])
	case "stream":
		return runStream(args[1:])
	case "features":
		return runFeatures(args[1:])
	case "proxy":
		return runProxy(args[1:])
	case "summarize":
		return runSummarize(args[1:])
	case "dataset":
		return runDataset(args[1:])
	case "journal":
		return runJournal(args[1:])
	case "checkpoint":
		return runCheckpoint(args[1:])
	case "metrics":
		return runMetrics(args[1:])
	case "trace":
		return runTrace(args[1:])
	case "verify":
		return runVerify(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func runProxy(args []string) (err error) {
	fs := flag.NewFlagSet("proxy", flag.ContinueOnError)
	mf := addMonitorFlags(fs)
	var (
		listen = fs.String("listen", "127.0.0.1:8080", "proxy listen address")
		block  = fs.Bool("block", true, "terminate sessions of alerted clients")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, shutdown, err := mf.start(0)
	if err != nil {
		return err
	}
	defer func() {
		if serr := shutdown(); err == nil {
			err = serr
		}
	}()
	p := dynaminer.NewProxy(dynaminer.ProxyConfig{
		BlockAfterAlert: *block,
		OnAlert: func(a dynaminer.Alert) {
			fmt.Printf("ALERT %s client=%s payload=%s host=%s score=%.2f\n",
				a.FormatTime("15:04:05"), a.Client, a.TriggerPayload, a.TriggerHost, a.Score)
		},
	}, m)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("DynaMiner proxy listening on %s (model %s, L=%d)\n", ln.Addr(), *mf.model, *mf.threshold)
	srv := &http.Server{Handler: p}

	// SIGINT/SIGTERM drain: stop intake, then the deferred shutdown writes
	// the final checkpoint and flushes the journal; SIGHUP hot-swaps the
	// model in place.
	drain, hup, stopSignals := notifyLifecycle()
	defer stopSignals()
	go func() {
		for {
			select {
			case <-drain:
				srv.Close()
				return
			case <-hup:
				reloadOnHUP(m, *mf.model)
			}
		}
	}()

	if proxyReady != nil {
		proxyReady <- srv
	}
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// proxyReady, when non-nil, receives the serving *http.Server so tests can
// shut the proxy down.
var proxyReady chan *http.Server

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	var (
		corpusDir = fs.String("corpus", "", "corpus directory (pcaps + manifest.csv)")
		synthetic = fs.Bool("synthetic", false, "train on a freshly generated synthetic corpus")
		modelPath = fs.String("model", "model.dmfb", "output model path (DMFB blob)")
		monitor   = fs.Bool("monitor", false, "train for on-the-wire monitoring (clue-subset representation)")
		seed      = fs.Int64("seed", 1, "seed for generation and training")
		trees     = fs.Int("trees", 20, "ensemble size N_t")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var eps []dynaminer.Episode
	switch {
	case *synthetic:
		eps = dynaminer.Corpus(dynaminer.CorpusConfig{Seed: *seed})
	case *corpusDir != "":
		var err error
		eps, err = loadCorpus(*corpusDir)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("train: need -corpus or -synthetic")
	}
	cfg := dynaminer.TrainConfig{NumTrees: *trees, Seed: *seed}
	var (
		clf *dynaminer.Classifier
		err error
	)
	if *monitor {
		clf, err = dynaminer.TrainForMonitoring(eps, cfg)
	} else {
		clf, err = dynaminer.Train(eps, cfg)
	}
	if err != nil {
		return err
	}
	if err := clf.SaveBlobFile(*modelPath); err != nil {
		return err
	}
	fmt.Printf("trained on %d episodes, model saved to %s\n", len(eps), *modelPath)
	return nil
}

// loadCorpus reads a tracegen-produced directory.
func loadCorpus(dir string) ([]dynaminer.Episode, error) {
	mf, err := os.Open(filepath.Join(dir, "manifest.csv"))
	if err != nil {
		return nil, fmt.Errorf("open manifest: %w", err)
	}
	defer mf.Close()
	var eps []dynaminer.Episode
	sc := bufio.NewScanner(mf)
	first := true
	for sc.Scan() {
		if first {
			first = false
			continue // header
		}
		fields := strings.Split(sc.Text(), ",")
		if len(fields) < 4 {
			continue
		}
		txs, err := dynaminer.ReadPCAPFile(filepath.Join(dir, fields[0]))
		if err != nil {
			return nil, err
		}
		eps = append(eps, dynaminer.Episode{
			Infection:  fields[1] == "infection",
			Family:     fields[2],
			Enticement: fields[3],
			Txs:        txs,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("no episodes in %s", dir)
	}
	return eps, nil
}

func runClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	modelPath := fs.String("model", "model.dmfb", "trained model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("classify: no captures given")
	}
	clf, err := dynaminer.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	for _, path := range fs.Args() {
		txs, err := dynaminer.ReadPCAPFile(path)
		if err != nil {
			return err
		}
		w := dynaminer.BuildWCG(txs)
		score := clf.Score(w)
		verdict := "benign"
		if clf.IsInfection(w) {
			verdict = "INFECTION"
		}
		fmt.Printf("%s: %s (score %.3f, %d hosts, %d transactions)\n",
			path, verdict, score, w.Order(), len(txs))
	}
	return nil
}

func runStream(args []string) (err error) {
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	mf := addMonitorFlags(fs)
	var (
		asJSON       = fs.Bool("json", false, "emit alerts as JSON lines (SIEM-friendly)")
		pace         = fs.Float64("pace", 0, "replay at capture pace divided by this factor (0 = as fast as possible)")
		ckptInterval = fs.Duration("checkpoint-interval", 30*time.Second, "background checkpoint cadence (with -checkpoint)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("stream: need exactly one capture")
	}
	capture, err := os.Open(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("open capture: %w", err)
	}
	defer capture.Close()
	m, shutdown, err := mf.start(*ckptInterval)
	if err != nil {
		return err
	}
	defer func() {
		if serr := shutdown(); err == nil {
			err = serr
		}
	}()
	emit := func(a dynaminer.Alert) error {
		if *asJSON {
			data, err := json.Marshal(a)
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			return nil
		}
		fmt.Printf("ALERT %s  client=%s payload=%s host=%s score=%.2f wcg=%d nodes\n",
			a.FormatTime("15:04:05.000"), a.Client, a.TriggerPayload, a.TriggerHost, a.Score, a.WCGOrder)
		return nil
	}

	// Transactions are classified as the capture scan releases them, not
	// after it has been read to the end. SIGINT/SIGTERM drain the replay —
	// the scan stops at its next read, the journal flushes, a final
	// checkpoint lands — instead of killing records on the floor; SIGHUP
	// hot-swaps the model mid-stream without dropping a watch.
	drain, hup, stopSignals := notifyLifecycle()
	defer stopSignals()
	interrupted := false
	var prev time.Time
	var emitErr error
	_, scanErr := m.ScanPCAP(stoppable{capture, &interrupted}, func(tx *dynaminer.Transaction) {
		if interrupted || emitErr != nil {
			return
		}
		select {
		case <-drain:
			interrupted = true
			return
		case <-hup:
			reloadOnHUP(m, *mf.model)
		default:
		}
		if *pace > 0 && !prev.IsZero() {
			if gap := tx.ReqTime.Sub(prev); gap > 0 &&
				paceSleep(gap, *pace, drain, hup, func() { reloadOnHUP(m, *mf.model) }) {
				interrupted = true
				return
			}
		}
		prev = tx.ReqTime
		for _, a := range m.Process(*tx) {
			if emitErr = emit(a); emitErr != nil {
				return
			}
		}
	})
	if emitErr != nil {
		return emitErr
	}
	if scanErr != nil && !interrupted {
		return fmt.Errorf("%s: %w", fs.Arg(0), scanErr)
	}
	if interrupted {
		fmt.Println("interrupted: draining (journal flush + final checkpoint)")
	}
	st := m.Stats()
	fmt.Printf("processed %d transactions: %d clusters, %d clues, %d classifications, %d alerts (%d weeded)\n",
		st.Transactions, st.Clusters, st.CluesFired, st.Classifications, st.Alerts, st.Weeded)
	return nil
}

func runFeatures(args []string) error {
	fs := flag.NewFlagSet("features", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("features: need exactly one capture")
	}
	txs, err := dynaminer.ReadPCAPFile(fs.Arg(0))
	if err != nil {
		return err
	}
	v := dynaminer.ExtractFeatures(dynaminer.BuildWCG(txs))
	for i, x := range v {
		fmt.Printf("f%-3d %-28s %g\n", i+1, dynaminer.FeatureName(i), x)
	}
	return nil
}
