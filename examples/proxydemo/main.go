// Proxy demo: DynaMiner deployed as a real forward HTTP proxy on
// localhost. A simulated web (one origin server routing by Host header)
// serves a benign page, an exploit-kit redirect chain, and a payload; a
// scripted browser walks into the trap through the proxy, DynaMiner raises
// an alert mid-download, and the victim's session is terminated.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"dynaminer"
)

// fakeWeb routes by logical Host header, standing in for the Internet.
func fakeWeb() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		// Host headers are case-insensitive DNS names: fold before routing
		// so "NEWS.Example" reaches the same virtual origin.
		host := strings.ToLower(r.Host)
		switch {
		case host == "news.example":
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, `<html><h1>Totally normal news site</h1></html>`)
		case host == "ads.shady" && r.URL.Path == "/click":
			http.Redirect(w, r, "http://seo.shady/go", http.StatusFound)
		case host == "seo.shady" && r.URL.Path == "/go":
			http.Redirect(w, r, "http://tds.shady/gate", http.StatusFound)
		case host == "tds.shady" && r.URL.Path == "/gate":
			http.Redirect(w, r, "http://landing.shady/ek", http.StatusFound)
		case host == "landing.shady" && r.URL.Path == "/ek":
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, `<html><iframe src="http://drop.shady/p.exe" width=1 height=1></iframe></html>`)
		case host == "landing.shady" && strings.HasSuffix(r.URL.Path, ".js"):
			w.Header().Set("Content-Type", "application/javascript")
			fmt.Fprint(w, "var plugins=navigator.plugins;/* fingerprinting */")
		case host == "198.18.76.2":
			w.Header().Set("Content-Type", "text/plain")
			fmt.Fprint(w, "ok")
		case host == "198.18.99.1":
			w.Header().Set("Content-Type", "text/plain")
			fmt.Fprint(w, "ok")
		case host == "drop.shady" && r.URL.Path == "/p.exe":
			w.Header().Set("Content-Type", "application/x-msdownload")
			fmt.Fprint(w, strings.Repeat("MZ", 4096))
		case host == "drop.shady":
			http.NotFound(w, r) // rotated payload URLs
		default:
			http.NotFound(w, r)
		}
	})
	return mux
}

// hostPinnedTransport rewrites every upstream request to the fake web
// while preserving the logical Host for routing.
type hostPinnedTransport struct{ target string }

func (t hostPinnedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	u, err := url.Parse(t.target)
	if err != nil {
		return nil, err
	}
	clone := r.Clone(r.Context())
	clone.Host = r.URL.Host
	clone.URL.Scheme = u.Scheme
	clone.URL.Host = u.Host
	return http.DefaultTransport.RoundTrip(clone)
}

func main() {
	adminAddr := flag.String("admin-addr", "", "serve /metrics, /healthz, /snapshot, /debug/pprof/ and the POST /reload and /rollback model controls on this address (empty = no admin server)")
	journalPath := flag.String("journal", "", "append one JSONL provenance record per alert to this file")
	saveModel := flag.String("save-model", "", "write the trained model as a DMFB blob to this path (a ready-made artifact for POST /reload)")
	linger := flag.Bool("linger", false, "keep the proxy and admin endpoints serving after the scripted walk until SIGINT/SIGTERM")
	traceSample := flag.Int("trace-sample", 0, "record a pipeline trace for every Nth proxied request (0 = tracing off; alert-raising requests are always kept)")
	flag.Parse()

	// Train the deployment-matched classifier.
	corpus := dynaminer.Corpus(dynaminer.CorpusConfig{Seed: 1, Infections: 250, Benign: 300})
	clf, err := dynaminer.TrainForMonitoring(corpus, dynaminer.TrainConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	if *saveModel != "" {
		if err := clf.SaveBlobFile(*saveModel); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model blob saved to %s\n", *saveModel)
	}

	web := httptest.NewServer(fakeWeb())
	defer web.Close()

	cfg := dynaminer.MonitorConfig{RedirectThreshold: 3}
	if *traceSample > 0 {
		// Tracer and engine must share a registry so the stage histograms
		// land next to the detector counters on /metrics.
		reg := dynaminer.NewMetricsRegistry()
		cfg.Metrics = reg
		cfg.Tracer = dynaminer.NewTracer(reg, *traceSample)
	}
	var j *dynaminer.Journal
	if *journalPath != "" {
		j, err = dynaminer.NewJournal(*journalPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Journal = j
	}
	// The Monitor owns the deployment: the engine the proxy serves, the
	// admin endpoints, model reloads (POST /reload defaults to -save-model)
	// and the journal.
	m := dynaminer.NewMonitor(cfg, clf)
	m.SetModelPath(*saveModel)

	// The journal must reach disk however the demo ends — a completed
	// walk, or SIGINT/SIGTERM mid-script. os.Exit skips defers, so the
	// signal path drains explicitly before exiting.
	var drainOnce sync.Once
	drain := func() {
		drainOnce.Do(func() {
			if err := m.Shutdown(); err != nil {
				fmt.Fprintln(os.Stderr, "shutdown:", err)
			}
			if err := j.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "journal close:", err)
			}
		})
	}
	defer drain()
	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer func() { recover() }()
		<-stop
		fmt.Println("\nsignal: flushing journal and exiting")
		drain()
		os.Exit(0)
	}()

	p := dynaminer.NewProxy(dynaminer.ProxyConfig{
		BlockAfterAlert: true,
		Transport:       hostPinnedTransport{target: web.URL},
		OnAlert: func(a dynaminer.Alert) {
			fmt.Printf(">>> ALERT: %s payload from %s (score %.2f, WCG %d nodes)\n",
				a.TriggerPayload, a.TriggerHost, a.Score, a.WCGOrder)
		},
	}, m)
	if *adminAddr != "" {
		addr, err := m.StartAdmin(*adminAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("admin endpoints on http://%s/ (metrics, healthz, snapshot, debug/pprof, reload, rollback)\n", addr)
	}
	proxySrv := httptest.NewServer(p)
	defer proxySrv.Close()
	proxyURL, err := url.Parse(proxySrv.URL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DynaMiner proxy on %s, fake web on %s\n\n", proxySrv.URL, web.URL)

	browser := &http.Client{
		Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)},
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	visit := func(rawurl, referer string) {
		req, err := http.NewRequest(http.MethodGet, rawurl, nil)
		if err != nil {
			log.Fatal(err)
		}
		if referer != "" {
			req.Header.Set("Referer", referer)
		}
		resp, err := browser.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		fmt.Printf("GET %-28s -> %d (%d bytes)\n", rawurl, resp.StatusCode, len(body))
	}

	post := func(rawurl string) {
		resp, err := browser.Post(rawurl, "text/plain", strings.NewReader("id=victim"))
		if err != nil {
			log.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		fmt.Printf("POST %-27s -> %d\n", rawurl, resp.StatusCode)
	}

	// Realistic pacing: browsers take hundreds of milliseconds per hop;
	// the classifier's temporal features are calibrated to that world.
	pace := func(d time.Duration) { time.Sleep(d) }

	fmt.Println("victim browses normally:")
	visit("http://news.example/", "")
	pace(1200 * time.Millisecond)

	fmt.Println("\nvictim clicks a malicious ad:")
	visit("http://ads.shady/click", "http://news.example/")
	pace(160 * time.Millisecond)
	visit("http://seo.shady/go", "http://ads.shady/click")
	pace(180 * time.Millisecond)
	visit("http://tds.shady/gate", "http://ads.shady/click")
	pace(220 * time.Millisecond)
	visit("http://landing.shady/ek", "http://tds.shady/gate")
	pace(150 * time.Millisecond)
	visit("http://landing.shady/fingerprint.js", "http://landing.shady/ek")
	pace(120 * time.Millisecond)
	visit("http://landing.shady/plugins.js", "http://landing.shady/ek")
	pace(400 * time.Millisecond)
	visit("http://drop.shady/old-build", "http://landing.shady/ek") // stale payload URL: 404
	pace(200 * time.Millisecond)
	visit("http://drop.shady/p.exe", "http://landing.shady/ek")
	pace(2 * time.Second)
	post("http://198.18.99.1/beacon.php")
	pace(1500 * time.Millisecond)
	post("http://198.18.76.2/beacon.php")

	fmt.Println("\nvictim tries to keep browsing — the session is terminated:")
	visit("http://news.example/", "")

	st := p.Stats()
	fmt.Printf("\nproxy stats: %d requests relayed, %d alerts, %d clients blocked, %d refused\n",
		st.Relayed, st.Alerts, st.BlockedClients, st.Refused)
	if *journalPath != "" {
		if err := j.Sync(); err != nil {
			log.Fatal(err)
		}
		recs, err := dynaminer.ReadJournalFile(*journalPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("journal: %d provenance record(s) in %s (render with `dynaminer journal %[2]s`)\n",
			len(recs), *journalPath)
	}
	if *linger {
		fmt.Printf("\nlingering: proxy %s live, model %s serving; SIGINT/SIGTERM to exit\n",
			proxySrv.URL, m.ModelVersion())
		select {} // the signal goroutine drains and exits the process
	}
}
