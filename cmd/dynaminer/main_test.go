package main

import (
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dynaminer"
)

// writeTinyCorpus produces a small tracegen-style corpus directory.
func writeTinyCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	eps := dynaminer.Corpus(dynaminer.CorpusConfig{Seed: 4, Infections: 8, Benign: 8})
	mf, err := os.Create(filepath.Join(dir, "manifest.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if _, err := mf.WriteString("file,label,family,enticement,transactions\n"); err != nil {
		t.Fatal(err)
	}
	for i := range eps {
		label := "benign"
		if eps[i].Infection {
			label = "infection"
		}
		name := label + "-" + string(rune('a'+i)) + ".pcap"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := eps[i].WritePCAP(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := mf.WriteString(name + "," + label + "," + eps[i].Family + "," + eps[i].Enticement + ",0\n"); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestTrainClassifyStreamFeaturesFlow(t *testing.T) {
	corpus := writeTinyCorpus(t)
	model := filepath.Join(t.TempDir(), "model.dmfb")

	if err := run([]string{"train", "-corpus", corpus, "-model", model, "-seed", "2", "-trees", "8"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}

	// Find one capture of each label.
	entries, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	var infection string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "infection-") {
			infection = filepath.Join(corpus, e.Name())
			break
		}
	}
	if infection == "" {
		t.Fatal("no infection capture")
	}
	if err := run([]string{"classify", "-model", model, infection}); err != nil {
		t.Fatalf("classify: %v", err)
	}
	if err := run([]string{"stream", "-model", model, "-threshold", "1", infection}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if err := run([]string{"features", infection}); err != nil {
		t.Fatalf("features: %v", err)
	}
}

func TestTrainMonitorVariant(t *testing.T) {
	corpus := writeTinyCorpus(t)
	model := filepath.Join(t.TempDir(), "monitor.dmfb")
	if err := run([]string{"train", "-corpus", corpus, "-model", model, "-monitor", "-trees", "6"}); err != nil {
		t.Fatalf("train -monitor: %v", err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatal("monitor model missing")
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		nil,                             // no subcommand
		{"bogus"},                       // unknown subcommand
		{"train"},                       // no corpus source
		{"classify", "-model", "nope"},  // no captures
		{"stream", "-model", "nope"},    // no capture
		{"features"},                    // no capture
		{"train", "-corpus", "/no/dir"}, // unreadable corpus
		{"classify", "-model", "/nope"}, // model missing (with capture)
	}
	for i, args := range cases {
		if i == 7 {
			args = append(args, "x.pcap")
		}
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestSummarizeAndDataset(t *testing.T) {
	corpus := writeTinyCorpus(t)
	entries, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	var capture string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "infection-") {
			capture = filepath.Join(corpus, e.Name())
			break
		}
	}
	if err := run([]string{"summarize", capture}); err != nil {
		t.Fatalf("summarize: %v", err)
	}
	if err := run([]string{"summarize"}); err == nil {
		t.Fatal("summarize without capture must error")
	}

	out := filepath.Join(t.TempDir(), "features.csv")
	if err := run([]string{"dataset", "-corpus", corpus, "-out", out}); err != nil {
		t.Fatalf("dataset: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 17 { // header + 16 episodes
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "Origin,X-Flash-Version,") {
		t.Fatalf("header = %q", lines[0])
	}
	if cols := strings.Count(lines[1], ","); cols != 38 { // 37 features + label + family - 1
		t.Fatalf("columns = %d", cols+1)
	}
	if err := run([]string{"dataset"}); err == nil {
		t.Fatal("dataset without source must error")
	}
}

func TestStreamJSONOutput(t *testing.T) {
	corpus := writeTinyCorpus(t)
	model := filepath.Join(t.TempDir(), "m.dmfb")
	if err := run([]string{"train", "-corpus", corpus, "-model", model, "-monitor", "-trees", "8"}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(corpus)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "infection-") {
			if err := run([]string{"stream", "-model", model, "-threshold", "1", "-json",
				filepath.Join(corpus, e.Name())}); err != nil {
				t.Fatalf("stream -json: %v", err)
			}
			return
		}
	}
	t.Fatal("no infection capture")
}

// captureStdout runs fn with os.Stdout sent to a file and returns what
// it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestStreamAlertLineWCGNodes pins the wcg=<n> nodes field of stream's
// alert line: it is the node count of the graph the alert builds, as the
// library's ProcessPCAP raises the same alerts over the same capture.
func TestStreamAlertLineWCGNodes(t *testing.T) {
	corpus := writeTinyCorpus(t)
	model := filepath.Join(t.TempDir(), "m.dmfb")
	if err := run([]string{"train", "-corpus", corpus, "-model", model, "-monitor", "-trees", "8"}); err != nil {
		t.Fatal(err)
	}
	clf, err := dynaminer.LoadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	field := regexp.MustCompile(` wcg=(\d+) nodes$`)
	entries, _ := os.ReadDir(corpus)
	checked := 0
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "infection-") {
			continue
		}
		capture := filepath.Join(corpus, e.Name())
		out := captureStdout(t, func() error { return run([]string{"stream", "-model", model, "-threshold", "1", capture}) })
		var nodes []int
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "ALERT ") {
				continue
			}
			m := field.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("%s: alert line without a wcg=<n> nodes field: %q", e.Name(), line)
			}
			n, _ := strconv.Atoi(m[1])
			nodes = append(nodes, n)
		}
		f, err := os.Open(capture)
		if err != nil {
			t.Fatal(err)
		}
		alerts, err := dynaminer.NewMonitor(dynaminer.MonitorConfig{RedirectThreshold: 1}, clf).ProcessPCAP(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != len(alerts) {
			t.Fatalf("%s: stream printed %d alert lines, ProcessPCAP raised %d alerts", e.Name(), len(nodes), len(alerts))
		}
		for i, a := range alerts {
			if g := a.Graph(); nodes[i] != g.Order() || a.WCGOrder != g.Order() {
				t.Fatalf("%s: alert %d prints wcg=%d, WCGOrder %d, Graph() has %d nodes", e.Name(), i, nodes[i], a.WCGOrder, g.Order())
			}
		}
		checked += len(alerts)
	}
	if checked == 0 {
		t.Fatal("no infection capture raised an alert: nothing is pinned")
	}
}

func TestProxySubcommandServes(t *testing.T) {
	corpus := writeTinyCorpus(t)
	model := filepath.Join(t.TempDir(), "p.dmfb")
	if err := run([]string{"train", "-corpus", corpus, "-model", model, "-monitor", "-trees", "6"}); err != nil {
		t.Fatal(err)
	}
	proxyReady = make(chan *http.Server, 1)
	defer func() { proxyReady = nil }()
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"proxy", "-model", model, "-listen", "127.0.0.1:0"})
	}()
	var srv *http.Server
	select {
	case srv = <-proxyReady:
	case err := <-errCh:
		t.Fatalf("proxy exited early: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("proxy returned %v after close", err)
	}
	// Bad model path errors immediately.
	if err := run([]string{"proxy", "-model", "/nope.dmfb"}); err == nil {
		t.Fatal("missing model must error")
	}
}

func TestVerifySubcommand(t *testing.T) {
	corpus := writeTinyCorpus(t)
	if err := run([]string{"verify", "-corpus", corpus, "-folds", "4", "-trees", "6"}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := run([]string{"verify"}); err == nil {
		t.Fatal("verify without source must error")
	}
}
