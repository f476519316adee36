package detector

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
	"dynaminer/internal/wcg"
)

// recordingScorer captures every vector it is asked to score, so the
// differential tests can compare the exact feature vectors each classify
// path produced, not just the resulting alerts.
type recordingScorer struct {
	base    Scorer
	vectors [][]float64
}

func (r *recordingScorer) Score(x []float64) float64 {
	r.vectors = append(r.vectors, append([]float64(nil), x...))
	return r.base.Score(x)
}

// vecScorer derives a deterministic pseudo-probability from the vector
// content: identical bits in, identical score out, and small feature
// differences move it across the alert threshold — so the differential
// tests exercise both alerting and non-alerting classifications.
type vecScorer struct{}

func (vecScorer) Score(x []float64) float64 {
	h := 0.0
	for i, v := range x {
		h += v * float64(i%7+1)
	}
	_, frac := math.Modf(h / 10)
	return math.Abs(frac)
}

func wcgJSON(t *testing.T, w *wcg.WCG) []byte {
	t.Helper()
	if w == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameAlerts compares an alert batch against the reference batch
// field by field, scores bitwise, and the carried WCGs byte for byte.
func requireSameAlerts(t *testing.T, ctx string, got, want []Alert) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d alerts, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if math.Float64bits(a.Score) != math.Float64bits(b.Score) {
			t.Fatalf("%s: alert %d score %v, want %v", ctx, i, a.Score, b.Score)
		}
		if !a.Time.Equal(b.Time) || a.Client != b.Client || a.ClusterID != b.ClusterID ||
			a.TriggerHost != b.TriggerHost || a.TriggerPayload != b.TriggerPayload {
			t.Fatalf("%s: alert %d fields diverged:\n got %+v\nwant %+v", ctx, i, a, b)
		}
		if !bytes.Equal(wcgJSON(t, a.Graph()), wcgJSON(t, b.Graph())) {
			t.Fatalf("%s: alert %d WCG serializations diverged", ctx, i)
		}
	}
}

// runDifferential streams txs through an incremental engine and a
// DisableIncremental twin, comparing alerts per transaction and the full
// scored-vector sequences at the end. Returns the incremental engine's
// stats.
func runDifferential(t *testing.T, ctx string, cfg Config, base Scorer, txs []httpstream.Transaction) Stats {
	t.Helper()
	incRec := &recordingScorer{base: base}
	scrRec := &recordingScorer{base: base}
	scrCfg := cfg
	scrCfg.DisableIncremental = true
	inc := New(cfg, incRec)
	scr := New(scrCfg, scrRec)
	for _, tx := range txs {
		requireSameAlerts(t, ctx, inc.Process(tx), scr.Process(tx))
	}
	if len(incRec.vectors) != len(scrRec.vectors) {
		t.Fatalf("%s: %d classifications incremental, %d from scratch", ctx, len(incRec.vectors), len(scrRec.vectors))
	}
	for i := range incRec.vectors {
		a, b := incRec.vectors[i], scrRec.vectors[i]
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("%s: classification %d feature %d = %v incremental, %v from scratch",
					ctx, i, j, a[j], b[j])
			}
		}
	}
	is, ss := inc.Stats(), scr.Stats()
	if is.Classifications != ss.Classifications || is.CluesFired != ss.CluesFired || is.Alerts != ss.Alerts {
		t.Fatalf("%s: stats diverged:\nincremental: %+v\nscratch:     %+v", ctx, is, ss)
	}
	if ss.Rebuilds != ss.Classifications {
		t.Fatalf("%s: DisableIncremental engine rebuilt %d of %d classifications", ctx, ss.Rebuilds, ss.Classifications)
	}
	return is
}

// chainClientEpisode is the watched-infection shape the benchmark's
// watch_chain workload replays (rebuilt here, not imported): a 3-hop
// redirect chain, an executable download, then 295 call-back POSTs of
// which 74 go to a host never seen before — each of those is one new leaf
// on the victim hub, so the watched WCG grows to 79 nodes.
func chainClientEpisode() []httpstream.Transaction {
	const callbacks, newHosts = 295, 74
	rng := rand.New(rand.NewSource(7))
	gates := []string{"gate0.example", "gate1.example", "gate2.example", "gate3.example"}
	var txs []httpstream.Transaction
	at := time.Duration(0)
	referer := ""
	for h := 0; h < 3; h++ {
		tx := mkTx(gates[h], "/gate.php", "GET", 302, "", 64, referer, at)
		tx.RespHdr.Set("Location", "http://"+gates[h+1]+"/gate.php")
		txs = append(txs, tx)
		referer = "http://" + gates[h] + "/gate.php"
		at += 100 * time.Millisecond
	}
	txs = append(txs, mkTx(gates[3], "/setup.exe", "GET", 200, "application/x-msdownload", 64, referer, at))
	fresh := map[int]bool{0: true}
	for _, k := range rng.Perm(callbacks - 1)[:newHosts-1] {
		fresh[k+1] = true
	}
	var cnc []string
	for k := 0; k < callbacks; k++ {
		at += 400 * time.Millisecond
		host := ""
		if fresh[k] {
			host = fmt.Sprintf("185.0.%d.%d", len(cnc)/200, 1+len(cnc)%200)
			cnc = append(cnc, host)
		} else {
			host = cnc[rng.Intn(len(cnc))]
		}
		txs = append(txs, mkTx(host, "/gate.php", "POST", 200, "text/plain", 64, "", at))
	}
	return txs
}

// TestIncrementalClassifyMatchesScratch is the tentpole's correctness
// gate: over 55 seeded synthetic episodes, the incremental classify path
// must produce bit-identical feature vectors, scores, and alert sequences
// (including the serialized alert WCGs) to the from-scratch path.
func TestIncrementalClassifyMatchesScratch(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 59, Infections: 30, Benign: 25})
	if len(episodes) < 50 {
		t.Fatalf("only %d episodes generated", len(episodes))
	}
	cfg := Config{RedirectThreshold: 1}
	classified, rebuilt := 0, 0
	for _, ep := range episodes {
		st := runDifferential(t, ep.Family, cfg, vecScorer{}, ep.Txs)
		classified += st.Classifications
		rebuilt += st.Rebuilds
	}
	if classified == 0 {
		t.Fatal("no episode triggered a classification; the differential covered nothing")
	}
	// The synthetic episodes stay under ~40 hosts; the chain client takes
	// the watched graph to 79 nodes, one call-back host at a time.
	chain := chainClientEpisode()
	if n := wcg.FromTransactions(chain).Order(); n != 79 {
		t.Fatalf("chain client WCG has %d nodes, want 79", n)
	}
	st := runDifferential(t, "chain-client", cfg, vecScorer{}, chain)
	if want := len(chain) - 3; st.Classifications != want {
		t.Fatalf("chain client: %d classifications, want %d (download + every call-back)", st.Classifications, want)
	}
	classified += st.Classifications
	rebuilt += st.Rebuilds
	// Synthetic episodes arrive in request-time order, so the incremental
	// path must have served every classification.
	if rebuilt != 0 {
		t.Fatalf("incremental engine fell back on %d of %d classifications", rebuilt, classified)
	}
}

// TestIncrementalInterleavedClients merges all episodes into one stream
// ordered by request time, so many clients' clusters grow interleaved
// through the same engine (and the same shared scratch workspace).
func TestIncrementalInterleavedClients(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 71, Infections: 12, Benign: 10})
	var stream []httpstream.Transaction
	for _, ep := range episodes {
		stream = append(stream, ep.Txs...)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].ReqTime.Before(stream[j].ReqTime) })
	st := runDifferential(t, "interleaved", Config{RedirectThreshold: 1}, vecScorer{}, stream)
	if st.Classifications == 0 {
		t.Fatal("interleaved stream triggered no classifications")
	}
	if st.Rebuilds != 0 {
		t.Fatalf("incremental engine fell back on %d of %d classifications", st.Rebuilds, st.Classifications)
	}
}

// TestIncrementalFallbackOnOutOfOrder pins the explicit fallback: a
// watched transaction arriving with an earlier request time than the live
// WCG's last append voids the byte-identity contract, so the engine must
// finish the watch from scratch — with output still identical to the
// always-from-scratch twin.
func TestIncrementalFallbackOnOutOfOrder(t *testing.T) {
	txs := infectionStream()
	// A related follow-up (same host as the download) whose ReqTime
	// precedes the download it follows in arrival order.
	late := mkTx("d.evil", "/beacon", "POST", 200, "text/plain", 40, "", 400*time.Millisecond)
	txs = append(txs, late)
	// And one more in-order growth transaction afterwards.
	txs = append(txs, mkTx("d.evil", "/beacon2", "POST", 200, "text/plain", 40, "", 900*time.Millisecond))

	st := runDifferential(t, "out-of-order", Config{RedirectThreshold: 3}, constScorer(0.9), txs)
	if st.Rebuilds == 0 {
		t.Fatal("out-of-order watched transaction did not trigger the from-scratch fallback")
	}
	if st.Rebuilds >= st.Classifications {
		t.Fatalf("fallback served all %d classifications; the clue itself should have been incremental", st.Classifications)
	}
}

// TestCloseWatchResetsIncrementalState checks a second clue in the same
// cluster starts a fresh live WCG instead of growing the closed one.
func TestCloseWatchResetsIncrementalState(t *testing.T) {
	cfg := Config{RedirectThreshold: 3}
	var txs []httpstream.Transaction
	txs = append(txs, infectionStream()...)
	// Let the watch go idle, then run a second, unrelated infection chain.
	base := 10 * time.Minute
	txs = append(txs,
		redirectTx("p.evil", "q.evil", base),
		mkTx("q.evil", "/x", "GET", 302, "", 0, "http://p.evil/r", base+100*time.Millisecond),
		redirectTx("q.evil", "r.evil", base+150*time.Millisecond),
		redirectTx("r.evil", "s.evil", base+300*time.Millisecond),
		mkTx("s.evil", "/second.exe", "GET", 200, "application/x-msdownload", 70000, "http://r.evil/r", base+500*time.Millisecond),
	)
	st := runDifferential(t, "second-clue", cfg, constScorer(0.9), txs)
	if st.CluesFired != 2 {
		t.Fatalf("clues fired = %d, want 2", st.CluesFired)
	}
	if st.Rebuilds != 0 {
		t.Fatalf("second watch fell back to from-scratch (%d rebuilds)", st.Rebuilds)
	}
}
