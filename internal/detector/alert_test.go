package detector

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/pcap"
	"dynaminer/internal/synth"
)

// frozenAlert is an alert beside its graph's bytes as taken when Process
// returned it.
type frozenAlert struct {
	a    Alert
	json []byte
}

// requireFrozen fails unless every alert's Graph() still serializes to the
// bytes taken when the alert was raised.
func requireFrozen(t *testing.T, stage string, frozen []frozenAlert) {
	t.Helper()
	for i, f := range frozen {
		if got := wcgJSON(t, f.a.Graph()); !bytes.Equal(got, f.json) {
			t.Fatalf("%s: alert %d (client %s, cluster %d) builds a different WCG than when it was raised",
				stage, i, f.a.Client, f.a.ClusterID)
		}
	}
}

// liveCluster returns the cluster with the given ID and its last activity,
// or nil once the cluster is gone.
func liveCluster(e *Engine, id int) (*cluster, time.Time) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		for _, c := range sh.st.clusters {
			if c.id == id {
				last := c.lastActive
				sh.mu.Unlock()
				return c, last
			}
		}
		sh.mu.Unlock()
	}
	return nil, time.Time{}
}

// TestAlertGraphFrozen: an alert's graph is a frozen view of its watch.
// Each alert's Graph() bytes, taken when Process returns the alert, must
// not change after the rest of the corpus, after the cluster's watch is
// closed and re-armed, after the cluster is quarantined and after the
// janitor evicts it, at one shard and at two, on the incremental path
// and on the rebuild path.
func TestAlertGraphFrozen(t *testing.T) {
	txs := corpusStream(synth.Config{Seed: 23, Infections: 10, Benign: 4})
	for _, shards := range []int{1, 2} {
		for _, rebuild := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/rebuild=%v", shards, rebuild), func(t *testing.T) {
				scorer := &gatedPanicScorer{base: constScorer(0.9)}
				cfg := Config{Shards: shards, RedirectThreshold: 1, DisableIncremental: rebuild}
				e := New(cfg, scorer)
				var frozen []frozenAlert
				for _, tx := range txs {
					for _, a := range e.Process(tx) {
						frozen = append(frozen, frozenAlert{a, wcgJSON(t, a.Graph())})
					}
				}
				if len(frozen) == 0 {
					t.Fatal("the corpus raised no alert: nothing is checked")
				}
				requireFrozen(t, "after the corpus", frozen)

				// The latest alert whose cluster is still live: close its
				// watch and arm a fresh one on a host the cluster knows.
				var a Alert
				var last time.Time
				for i := len(frozen) - 1; i >= 0 && last.IsZero(); i-- {
					if c, l := liveCluster(e, frozen[i].a.ClusterID); c != nil {
						a, last = frozen[i].a, l
					}
				}
				if last.IsZero() {
					t.Fatal("every alerted cluster was evicted during the corpus")
				}
				at := last.Add(watchIdle + time.Second).Sub(t0)
				onHost := func(tx httpstream.Transaction) httpstream.Transaction {
					tx.ClientIP = a.Client
					return tx
				}
				e.Process(onHost(redirectTx(a.TriggerHost, "rearm.example", at)))
				rearmed := e.Process(onHost(mkTx(a.TriggerHost, "/rearm.exe", "GET", 200, "application/x-msdownload", 4096, "", at+time.Second)))
				if len(rearmed) != 1 || rearmed[0].ClusterID != a.ClusterID {
					t.Fatalf("re-arming cluster %d raised %+v", a.ClusterID, rearmed)
				}
				frozen = append(frozen, frozenAlert{rearmed[0], wcgJSON(t, rearmed[0].Graph())})
				requireFrozen(t, "after a watch close and re-arm", frozen)

				scorer.armed = true
				if got := e.Process(onHost(mkTx(a.TriggerHost, "/again.exe", "GET", 200, "application/x-msdownload", 4096, "", at+2*time.Second))); got != nil {
					t.Fatalf("poisoned classify raised %+v", got)
				}
				scorer.armed = false
				if st := e.Stats(); st.Quarantined != 1 {
					t.Fatalf("stats %+v, want the cluster quarantined", st)
				}
				requireFrozen(t, "after a quarantine", frozen)

				if n := e.EvictIdle(t0.Add(365 * 24 * time.Hour)); n == 0 {
					t.Fatal("the janitor sweep evicted nothing")
				}
				if c, _ := liveCluster(e, a.ClusterID); c != nil {
					t.Fatal("the alerted cluster survived the janitor sweep")
				}
				requireFrozen(t, "after janitor eviction", frozen)
			})
		}
	}
}

// TestAlertGraphFrozenWhileFeeding is the race half of the frozen view:
// alerts raised by the first part of every client's traffic are read
// through Graph() from a second goroutine while the rest of the traffic,
// rendered as one capture, is still being fed through an io.Pipe into
// ProcessFeed — the feed ProcessPCAP runs — and grows the same clusters.
// Under -race this catches any write to what an alert's view reads.
func TestAlertGraphFrozenWhileFeeding(t *testing.T) {
	txs := corpusStream(synth.Config{Seed: 29, Infections: 10, Benign: 4})
	e := New(Config{Shards: 2, RedirectThreshold: 1}, constScorer(0.9))
	// Each client goes through Process up to its first alert; what
	// follows is held back for the capture.
	alerted := make(map[netip.Addr]bool)
	rest := make(map[netip.Addr][]httpstream.Transaction)
	var clients []netip.Addr
	var frozen []frozenAlert
	for _, tx := range txs {
		if alerted[tx.ClientIP] {
			if rest[tx.ClientIP] == nil {
				clients = append(clients, tx.ClientIP)
			}
			rest[tx.ClientIP] = append(rest[tx.ClientIP], tx)
			continue
		}
		for _, a := range e.Process(tx) {
			alerted[tx.ClientIP] = true
			frozen = append(frozen, frozenAlert{a, wcgJSON(t, a.Graph())})
		}
	}
	if len(frozen) == 0 || len(clients) == 0 {
		t.Fatalf("%d alerts, %d clients with later traffic: nothing is checked", len(frozen), len(clients))
	}
	var convs []pcap.Conversation
	for _, c := range clients {
		ep := synth.Episode{Txs: rest[c]}
		convs = append(convs, ep.Conversations()...)
	}
	var capture bytes.Buffer
	if err := pcap.WriteConversations(&capture, convs); err != nil {
		t.Fatal(err)
	}

	r, w := io.Pipe()
	go func() {
		data := capture.Bytes()
		for len(data) > 0 {
			n := min(len(data), 4096)
			if _, err := w.Write(data[:n]); err != nil {
				return
			}
			data = data[n:]
		}
		w.Close()
	}()
	done := make(chan struct{})
	var reads int
	var stale error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for i, f := range frozen {
				var buf bytes.Buffer
				if err := f.a.Graph().WriteJSON(&buf); err != nil || !bytes.Equal(buf.Bytes(), f.json) {
					stale = fmt.Errorf("alert %d changed while the capture was fed (write error %v)", i, err)
					return
				}
				reads++
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	fed := 0
	_, err := e.ProcessFeed(func(deliver func(*httpstream.Transaction)) error {
		_, err := httpstream.ScanCapture(r, nil, func(tx *httpstream.Transaction) {
			fed++
			deliver(tx)
		})
		return err
	})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stale != nil {
		t.Fatal(stale)
	}
	if fed == 0 || reads == 0 {
		t.Fatalf("%d transactions fed, %d graphs read: the two sides never ran", fed, reads)
	}
	requireFrozen(t, "after the feed", frozen)
}

// TestAlertAllocsIndependentOfGraphOrder: raising an alert costs the same
// allocations whatever the size of the watched graph. One watched client
// calls back to 16 fresh hosts, in a second engine to 1 024, and then
// downloads again from its exploit host; each such download into the
// infectious-scoring watch raises an alert. The per-alert allocation
// count must be equal at both sizes: an alert copies no graph.
func TestAlertAllocsIndependentOfGraphOrder(t *testing.T) {
	const runs = 100
	measure := func(hosts int) float64 {
		e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
		txs := infectionStream()
		at := 600 * time.Millisecond
		for i := 0; i < hosts; i++ {
			txs = append(txs, mkTx(fmt.Sprintf("cb%d.example", i), "/gate", "POST", 200, "text/plain", 16, "", at))
			at += 10 * time.Millisecond
		}
		for _, tx := range txs {
			e.Process(tx)
		}
		downloads := make([]httpstream.Transaction, runs+1) // AllocsPerRun warms up once
		for i := range downloads {
			downloads[i] = mkTx("d.evil", "/drop.exe", "GET", 200, "application/x-msdownload", 90000, "", at)
			at += 10 * time.Millisecond
		}
		next := 0
		var alerts []Alert
		allocs := testing.AllocsPerRun(runs, func() {
			alerts = e.Process(downloads[next])
			next++
		})
		if len(alerts) != 1 || alerts[0].WCGOrder <= hosts {
			t.Fatalf("%d call-back hosts: the last download raised %+v", hosts, alerts)
		}
		return allocs
	}
	small, large := measure(16), measure(1024)
	t.Logf("allocations per alert: %.0f at 16 call-back hosts, %.0f at 1 024", small, large)
	if small != large {
		t.Fatalf("an alert allocates %.0f objects at 16 call-back hosts and %.0f at 1 024: alert emission is O(graph)", small, large)
	}
}
