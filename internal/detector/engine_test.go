package detector

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
)

// evictIdle drops every session cluster whose last activity precedes
// cutoff, across all shards, and returns how many were removed: the
// inline TTL sweep, run at a cutoff the test chooses.
func (e *Engine) evictIdle(cutoff time.Time) int {
	evicted := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		evicted += sh.st.evictIdle(cutoff)
		sh.mu.Unlock()
	}
	return evicted
}

// interleavedCorpus merges a synthetic corpus into one multi-client
// transaction stream: each episode gets its own client IP and the streams
// are interleaved in timestamp order, the way a capture point sees them.
func interleavedCorpus(tb testing.TB, n int) []httpstream.Transaction {
	tb.Helper()
	eps := synth.GenerateCorpus(synth.Config{Seed: 7, Infections: n, Benign: n})
	var all []httpstream.Transaction
	for i, ep := range eps {
		ip := netip.AddrFrom4([4]byte{10, 7, byte(i >> 8), byte(i)})
		for _, tx := range ep.Txs {
			tx.ClientIP = ip
			all = append(all, tx)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ReqTime.Before(all[j].ReqTime) })
	return all
}

// TestPerClientDeterminismAcrossShards checks the shard-per-client invariant:
// each client's alerts are identical regardless of shard count (only
// cluster IDs, which are strided per shard, may differ).
func TestPerClientDeterminismAcrossShards(t *testing.T) {
	txs := interleavedCorpus(t, 8)
	perClient := func(alerts []Alert) map[string][]string {
		m := make(map[string][]string)
		for _, a := range alerts {
			a.ClusterID = 0 // shard-striding makes IDs layout-dependent
			data, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			m[a.Client.String()] = append(m[a.Client.String()], string(data))
		}
		return m
	}
	a1 := New(Config{RedirectThreshold: 1, Shards: 1}, constScorer(0.9)).ProcessAll(txs)
	a4 := New(Config{RedirectThreshold: 1, Shards: 4}, constScorer(0.9)).ProcessAll(txs)
	if len(a1) == 0 {
		t.Fatal("no alerts; test is vacuous")
	}
	if g1, g4 := perClient(a1), perClient(a4); !reflect.DeepEqual(g1, g4) {
		t.Fatalf("per-client alerts differ across shard counts:\n1 shard: %v\n4 shards: %v", g1, g4)
	}
}

func TestShardRoutingAndAggregation(t *testing.T) {
	s := New(Config{RedirectThreshold: 3, Shards: 4}, constScorer(0.1))
	const clients = 16
	for i := 0; i < clients; i++ {
		ip := netip.AddrFrom4([4]byte{10, 9, 0, byte(i)})
		for _, tx := range infectionStream() {
			tx.ClientIP = ip
			s.Process(tx)
		}
	}
	st := s.Stats()
	if st.Transactions != clients*5 {
		t.Fatalf("transactions = %d, want %d", st.Transactions, clients*5)
	}
	// Each client's whole chain must land in one shard and one cluster; a
	// client split across shards would open extra clusters.
	if st.Clusters != clients {
		t.Fatalf("clusters = %d, want %d", st.Clusters, clients)
	}
	if st.CluesFired != clients {
		t.Fatalf("clues = %d, want %d", st.CluesFired, clients)
	}

	w := s.Watched()
	if len(w) != clients {
		t.Fatalf("watched = %d, want %d", len(w), clients)
	}
	seen := make(map[int]bool)
	for _, ww := range w {
		if seen[ww.ClusterID] {
			t.Fatalf("cluster ID %d not unique across shards", ww.ClusterID)
		}
		seen[ww.ClusterID] = true
	}
	if !sort.SliceIsSorted(w, func(i, j int) bool { return w[i].ClusterID < w[j].ClusterID }) {
		t.Fatal("Watched not ordered by cluster ID")
	}

	if n := s.evictIdle(t0.Add(time.Hour)); n != clients {
		t.Fatalf("evicted = %d, want %d", n, clients)
	}
	if got := s.Stats().Evicted; got != clients {
		t.Fatalf("stats.Evicted = %d, want %d", got, clients)
	}
	if len(s.Watched()) != 0 {
		t.Fatal("watches must not survive eviction")
	}
}

func TestShardCountDefaults(t *testing.T) {
	if got := len(New(Config{}, nil).shards); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default shards = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := len(New(Config{Shards: 3}, nil).shards); got != 3 {
		t.Fatalf("shards = %d, want 3", got)
	}
}

// TestEngineRaceStress hammers one multi-shard Engine from many
// goroutines with interleaved Process/Stats/Watched/evictIdle calls; run
// under -race (the tier-2 target) to validate the shard locking.
func TestEngineRaceStress(t *testing.T) {
	s := New(Config{RedirectThreshold: 3, Shards: 4}, constScorer(0.6))
	const (
		writers = 8
		rounds  = 40
	)
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = s.Stats()
					_ = s.Watched()
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ip := netip.AddrFrom4([4]byte{10, 0, 1, byte(w)})
			for i := 0; i < rounds; i++ {
				shift := time.Duration(i) * time.Minute
				for _, tx := range infectionStream() {
					tx.ClientIP = ip
					tx.ReqTime = tx.ReqTime.Add(shift)
					tx.RespTime = tx.RespTime.Add(shift)
					s.Process(tx)
				}
				switch i % 3 {
				case 0:
					_ = s.Stats()
				case 1:
					_ = s.Watched()
				case 2:
					s.evictIdle(t0.Add(shift - 30*time.Minute))
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if got := s.Stats().Transactions; got != writers*rounds*5 {
		t.Fatalf("transactions = %d, want %d", got, writers*rounds*5)
	}
}

// TestProcessAllMatchesPerTx pins the slab contract directly: on a
// multi-shard engine, ProcessAll (a feed over the slab: one worker per
// shard, order-preserving merge) must emit exactly the alert stream that
// per-transaction Process calls produce on an identically configured
// engine.
func TestProcessAllMatchesPerTx(t *testing.T) {
	txs := interleavedCorpus(t, 8)
	serial := New(Config{RedirectThreshold: 1, Shards: 4}, constScorer(0.9))
	slab := New(Config{RedirectThreshold: 1, Shards: 4}, constScorer(0.9))

	var want []Alert
	for _, tx := range txs {
		want = append(want, serial.Process(tx)...)
	}
	got := slab.ProcessAll(txs)
	if len(want) == 0 {
		t.Fatal("no alerts; test is vacuous")
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Fatalf("slab alert stream differs from per-tx stream:\nper-tx = %s\nslab   = %s", wj, gj)
	}
	if serial.Stats() != slab.Stats() {
		t.Fatalf("stats differ: per-tx %+v, slab %+v", serial.Stats(), slab.Stats())
	}
}
