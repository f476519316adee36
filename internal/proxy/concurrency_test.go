package proxy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dynaminer/internal/detector"
)

// TestProxyConcurrentClients drives many goroutine clients through the
// proxy at once; run with -race to validate the engine locking.
func TestProxyConcurrentClients(t *testing.T) {
	p, client, cleanup := testSetup(t, Config{}, newEngine(constScorer(0.2)))
	defer cleanup()

	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 20
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := client.Get(fmt.Sprintf("http://benign.com/?w=%d&i=%d", w, i))
				if err != nil {
					errs <- err
					return
				}
				_ = resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := p.Stats().Relayed; got != workers*perWorker {
		t.Fatalf("relayed = %d, want %d", got, workers*perWorker)
	}
	if es := p.engine.Stats(); es.Transactions != workers*perWorker {
		t.Fatalf("engine transactions = %d", es.Transactions)
	}
}

// TestProxyShardedStatsConsistent drives many concurrent client identities
// (distinct X-Forwarded-For addresses) through the sharded proxy, each one
// walking into an infection and getting blocked mid-run, and checks the
// aggregated proxy and engine counters stay consistent.
func TestProxyShardedStatsConsistent(t *testing.T) {
	cfg := Config{
		BlockAfterAlert:    true,
		TrustXForwardedFor: true,
	}
	p, client, cleanup := testSetup(t, cfg, detector.New(detector.Config{Shards: 4}, constScorer(0.95)))
	defer cleanup()

	const workers = 12
	do := func(w int, rawurl, referer string) error {
		req, err := http.NewRequest(http.MethodGet, rawurl, nil)
		if err != nil {
			return err
		}
		if referer != "" {
			req.Header.Set("Referer", referer)
		}
		req.Header.Set("X-Forwarded-For", fmt.Sprintf("203.0.113.%d", w+1))
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chain := []struct{ url, ref string }{
				{"http://benign.com/", ""},
				{"http://hop1.evil/go", "http://benign.com/"},
				{"http://hop2.evil/go", "http://hop1.evil/go"},
				{"http://hop3.evil/land", "http://hop2.evil/go"},
				{"http://drop.evil/p.exe", "http://hop3.evil/land"},
			}
			for _, c := range chain {
				if err := do(w, c.url, c.ref); err != nil {
					errs <- err
					return
				}
			}
			// The payload download alerted and blocked this identity:
			// everything after it is refused.
			for i := 0; i < 4; i++ {
				if err := do(w, fmt.Sprintf("http://benign.com/?i=%d", i), ""); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := p.Stats()
	if st.Requests != workers*9 {
		t.Fatalf("requests = %d, want %d", st.Requests, workers*9)
	}
	if st.Requests != st.Relayed+st.Refused+st.UpstreamErrors {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	if st.Refused != workers*4 {
		t.Fatalf("refused = %d, want %d (stats %+v)", st.Refused, workers*4, st)
	}
	if st.BlockedClients != workers {
		t.Fatalf("blocked = %d, want %d", st.BlockedClients, workers)
	}
	es := p.engine.Stats()
	if es.Transactions != st.Relayed {
		t.Fatalf("engine transactions = %d, relayed = %d", es.Transactions, st.Relayed)
	}
	if es.Alerts < workers {
		t.Fatalf("engine alerts = %d, want >= %d", es.Alerts, workers)
	}
	if st.Alerts != es.Alerts {
		t.Fatalf("proxy alerts = %d, engine alerts = %d", st.Alerts, es.Alerts)
	}
	if len(p.engine.Watched()) == 0 {
		t.Fatal("the proxied infections must be watched on the engine")
	}
}

// TestProxyDirectRequest covers the non-proxied (origin-form) request path
// where the URL has no host and the Host header is used.
func TestProxyDirectRequest(t *testing.T) {
	p, _, cleanup := testSetup(t, Config{}, newEngine(constScorer(0)))
	defer cleanup()
	// Hit the proxy directly (reverse-proxy style): URL path only.
	srv := httptest.NewServer(p)
	defer srv.Close()
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Host = "benign.com"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
