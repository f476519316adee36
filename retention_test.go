package dynaminer

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
	"dynaminer/internal/pcap"
)

// TestEngineNeverReadsDroppedBodies pins the invariant the capture path's
// retention rule stands on: the engine reads no body whose payload class
// does not carry redirects, which is exactly the body the capture drops.
// One capture of 55 episodes (a client each, interleaved by time) is read
// with ReadPCAP; a copy of its transactions gets a meta-refresh to a host
// nobody visits planted in every such body. Both go through ProcessAll at
// one shard and at two, and must agree on every alert (score bits and
// graph included), the Stats, the journal and the watched WCGs.
func TestEngineNeverReadsDroppedBodies(t *testing.T) {
	episodes := Corpus(CorpusConfig{Seed: 59, Infections: 30, Benign: 25})
	clf, err := TrainForMonitoring(episodes, TrainConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var pkts []pcap.Packet
	for e := range episodes {
		client := netip.AddrFrom4([4]byte{10, 40, 0, byte(1 + e)})
		for i := range episodes[e].Txs {
			episodes[e].Txs[i].ClientIP = client
		}
		for _, c := range episodes[e].Conversations() {
			conv, err := pcap.BuildConversation(c)
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, conv...)
		}
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Timestamp.Before(pkts[j].Timestamp) })
	var capture bytes.Buffer
	w := pcap.NewWriter(&capture)
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	txs, err := ReadPCAP(&capture)
	if err != nil {
		t.Fatal(err)
	}

	const meta = `<meta http-equiv="refresh" content="0;url=http://planted.example/">`
	planted := slices.Clone(txs)
	n := 0
	for i := range planted {
		if !httpstream.ClassifyPayload(planted[i].URI, planted[i].ContentType).CarriesRedirects() {
			planted[i].Body = []byte(meta)
			n++
		}
	}
	if n == 0 || n == len(txs) {
		t.Fatalf("%d of %d transactions planted: the differential compares nothing", n, len(txs))
	}

	type run struct {
		alerts  []Alert
		graphs  [][]byte
		stats   MonitorStats
		journal []string
		watched []WatchedWCG
	}
	replay := func(txs []Transaction, shards int) run {
		var journal bytes.Buffer
		m := NewMonitor(MonitorConfig{RedirectThreshold: 1, Shards: shards, Journal: obs.NewJournalWriter(&journal)}, clf)
		r := run{alerts: m.ProcessAll(txs), stats: m.Stats(), watched: m.Watched()}
		for _, a := range r.alerts {
			var g bytes.Buffer
			if w := a.Graph(); w != nil {
				if err := w.WriteJSON(&g); err != nil {
					t.Fatal(err)
				}
			}
			r.graphs = append(r.graphs, g.Bytes())
		}
		// Two shards append to the journal and report their watches as
		// they go: the records are the same, their order is not.
		r.journal = strings.Split(strings.TrimSpace(journal.String()), "\n")
		sort.Strings(r.journal)
		sort.Slice(r.watched, func(i, j int) bool {
			if c := r.watched[i].Client.Compare(r.watched[j].Client); c != 0 {
				return c < 0
			}
			return r.watched[i].ClusterID < r.watched[j].ClusterID
		})
		return r
	}
	for _, shards := range []int{1, 2} {
		want, got := replay(txs, shards), replay(planted, shards)
		if len(want.alerts) == 0 || len(want.watched) == 0 {
			t.Fatalf("%d shards: %d alerts, %d watched: the replay exercised nothing", shards, len(want.alerts), len(want.watched))
		}
		if len(got.alerts) != len(want.alerts) {
			t.Fatalf("%d shards: %d alerts with planted bodies, %d without", shards, len(got.alerts), len(want.alerts))
		}
		for i := range got.alerts {
			g, w := got.alerts[i], want.alerts[i]
			if g.Client != w.Client || !g.Time.Equal(w.Time) || g.ClusterID != w.ClusterID || g.TriggerHost != w.TriggerHost ||
				g.TriggerPayload != w.TriggerPayload || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("%d shards: alert %d differs with planted bodies: %+v against %+v", shards, i, g, w)
			}
			if !bytes.Equal(got.graphs[i], want.graphs[i]) {
				t.Fatalf("%d shards: alert %d's WCG differs with planted bodies", shards, i)
			}
		}
		if got.stats != want.stats {
			t.Fatalf("%d shards: Stats differ with planted bodies:\n%+v\n%+v", shards, got.stats, want.stats)
		}
		if !slices.Equal(got.journal, want.journal) {
			t.Fatalf("%d shards: journals differ with planted bodies (%d records against %d)", shards, len(got.journal), len(want.journal))
		}
		if !reflect.DeepEqual(got.watched, want.watched) {
			t.Fatalf("%d shards: watched WCGs differ with planted bodies:\n%+v\n%+v", shards, got.watched, want.watched)
		}
	}
}
