package dynaminer

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"dynaminer/internal/obs"
)

// TestMonitorConcurrentClientsMatchSerial drives one Monitor from many
// goroutines, one per client, and checks every client's alert count matches
// a serial replay. Sharding routes each client to exactly one shard, so
// interleaving across clients must never change verdicts; under -race this
// also exercises the shard locks end to end through the public API.
func TestMonitorConcurrentClientsMatchSerial(t *testing.T) {
	eps := Corpus(CorpusConfig{Seed: 51, Infections: 100, Benign: 120})
	c, err := TrainForMonitoring(eps, TrainConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fresh := Corpus(CorpusConfig{Seed: 52, Infections: 8, Benign: 8})
	// Give every episode its own client address so sessions never merge
	// and per-client results are well-defined.
	total := 0
	for i := range fresh {
		addr := netip.AddrFrom4([4]byte{10, 1, byte(i / 200), byte(1 + i%200)})
		for j := range fresh[i].Txs {
			fresh[i].Txs[j].ClientIP = addr
		}
		total += len(fresh[i].Txs)
	}

	serialAlerts := make([]int, len(fresh))
	serial := NewMonitor(MonitorConfig{RedirectThreshold: 1, Shards: 4}, c)
	for i := range fresh {
		serialAlerts[i] = len(serial.ProcessAll(fresh[i].Txs))
	}

	concurrent := NewMonitor(MonitorConfig{RedirectThreshold: 1, Shards: 4}, c)
	concAlerts := make([]int, len(fresh))
	var wg sync.WaitGroup
	for i := range fresh {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := 0
			for _, tx := range fresh[i].Txs {
				n += len(concurrent.Process(tx))
			}
			concAlerts[i] = n
		}(i)
	}
	// Poll the aggregate snapshots while the writers run: Stats and
	// Watched take every shard lock and must be safe mid-stream.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 100; k++ {
			_ = concurrent.Stats()
			_ = concurrent.Watched()
		}
	}()
	wg.Wait()
	<-done

	for i := range fresh {
		if concAlerts[i] != serialAlerts[i] {
			t.Errorf("client %d: concurrent alerts = %d, serial = %d", i, concAlerts[i], serialAlerts[i])
		}
	}
	if st := concurrent.Stats(); st.Transactions != total {
		t.Fatalf("stats saw %d transactions, want %d", st.Transactions, total)
	}
}

// TestShardCountNeverChangesVerdicts is the standing N-shards ≡ 1-shard
// oracle over the whole wire path: one multi-client capture goes through
// Monitor.ProcessPCAP — reassembly, HTTP extraction, watermark release to
// the shard workers, a trained classifier, the journal — at several shard counts, and
// everything except the shard-strided cluster IDs must come out the same.
func TestShardCountNeverChangesVerdicts(t *testing.T) {
	eps, clf := obsFixture(t)
	capture := renderCapture(t, eps, 41)

	type outcome struct {
		perClient map[string][]string
		counters  [5]int
		records   int
	}
	run := func(shards int) outcome {
		var journal bytes.Buffer
		m := NewMonitor(MonitorConfig{
			RedirectThreshold: 1,
			Shards:            shards,
			Journal:           obs.NewJournalWriter(&journal),
		}, clf)
		alerts, err := m.ProcessPCAP(bytes.NewReader(capture.bytes))
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{perClient: make(map[string][]string)}
		for _, a := range alerts {
			a.ClusterID = 0 // strided per shard, so layout-dependent
			data, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			out.perClient[a.Client.String()] = append(out.perClient[a.Client.String()], string(data))
		}
		st := m.Stats()
		out.counters = [5]int{st.Transactions, st.Weeded, st.CluesFired, st.Classifications, st.Alerts}
		recs, err := ReadJournal(&journal)
		if err != nil {
			t.Fatal(err)
		}
		out.records = len(recs)
		return out
	}

	want := run(1)
	if len(want.perClient) < 2 || want.records == 0 {
		t.Fatalf("one-shard run alerted %d clients with %d journal records; the oracle is vacuous",
			len(want.perClient), want.records)
	}
	for _, shards := range []int{2, 5} {
		got := run(shards)
		if !reflect.DeepEqual(got.perClient, want.perClient) {
			t.Errorf("%d shards: per-client alerts differ from one shard:\n got %v\nwant %v", shards, got.perClient, want.perClient)
		}
		if got.counters != want.counters {
			t.Errorf("%d shards: transactions/weeded/clues/classifications/alerts = %v, one shard = %v", shards, got.counters, want.counters)
		}
		if got.records != want.records {
			t.Errorf("%d shards: %d journal records, one shard wrote %d", shards, got.records, want.records)
		}
	}
}
