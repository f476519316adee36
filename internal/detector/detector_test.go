package detector

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/netip"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/features"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/ml"
	"dynaminer/internal/synth"
	"dynaminer/internal/wcg"
)

var (
	t0       = time.Date(2016, 7, 10, 15, 0, 0, 0, time.UTC)
	clientIP = netip.MustParseAddr("10.0.0.44")
)

// constScorer always returns a fixed infection probability.
type constScorer float64

func (c constScorer) Score([]float64) float64 { return float64(c) }

func mkTx(host, uri, method string, code int, ct string, size int, ref string, at time.Duration) httpstream.Transaction {
	rh := http.Header{}
	if ref != "" {
		rh.Set("Referer", ref)
	}
	return httpstream.Transaction{
		ClientIP: clientIP, ServerIP: netip.MustParseAddr("198.51.100.77"),
		ClientPort: 50100, ServerPort: 80,
		Method: method, URI: uri, Host: host,
		ReqHdr: rh, RespHdr: http.Header{},
		ReqTime: t0.Add(at), RespTime: t0.Add(at + 10*time.Millisecond),
		StatusCode: code, ContentType: ct, BodySize: size,
	}
}

// redirectTx builds a 302 hop from host to next.
func redirectTx(host, next string, at time.Duration) httpstream.Transaction {
	tx := mkTx(host, "/r", "GET", 302, "", 0, "", at)
	tx.RespHdr.Set("Location", "http://"+next+"/x")
	return tx
}

// infectionStream is a redirect chain (3 hops) followed by an EXE download.
func infectionStream() []httpstream.Transaction {
	return []httpstream.Transaction{
		redirectTx("a.evil", "b.evil", 0),
		mkTx("b.evil", "/x", "GET", 302, "", 0, "http://a.evil/r", 100*time.Millisecond),
		redirectTx("b.evil", "c.evil", 150*time.Millisecond),
		redirectTx("c.evil", "d.evil", 300*time.Millisecond),
		mkTx("d.evil", "/drop.exe", "GET", 200, "application/x-msdownload", 90000, "http://c.evil/r", 500*time.Millisecond),
	}
}

func TestClueFiresAndAlerts(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	alerts := e.ProcessAll(infectionStream())
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1 (stats %+v)", len(alerts), e.Stats())
	}
	a := alerts[0]
	if a.TriggerHost != "d.evil" || a.TriggerPayload != wcg.PayloadEXE {
		t.Fatalf("alert trigger = %s/%v", a.TriggerHost, a.TriggerPayload)
	}
	if a.Score != 0.9 || a.Client != clientIP {
		t.Fatalf("alert fields wrong: %+v", a)
	}
	if g := a.Graph(); g == nil || g.Order() < 4 || g.Order() != a.WCGOrder || g.Size() != a.WCGSize {
		t.Fatal("alert must carry the potential-infection WCG")
	}
	if a.Time.IsZero() {
		t.Fatal("alert time unset")
	}
	st := e.Stats()
	if st.CluesFired != 1 || st.Alerts != 1 || st.Classifications != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestNoClueWithoutDownload(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	txs := infectionStream()
	alerts := e.ProcessAll(txs[:4]) // redirects only, no download
	if len(alerts) != 0 {
		t.Fatalf("alerts = %d without a download", len(alerts))
	}
	if e.Stats().CluesFired != 0 {
		t.Fatal("clue must not fire without a download")
	}
}

func TestNoClueBelowThreshold(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 5}, constScorer(0.9))
	if alerts := e.ProcessAll(infectionStream()); len(alerts) != 0 {
		t.Fatalf("alerts = %d with threshold 5", len(alerts))
	}
}

func TestBenignScoreNoAlertButKeepsWatching(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.1))
	alerts := e.ProcessAll(infectionStream())
	if len(alerts) != 0 {
		t.Fatal("low score must not alert")
	}
	st := e.Stats()
	if st.CluesFired != 1 {
		t.Fatal("clue must fire")
	}
	if st.Classifications != 1 {
		t.Fatalf("classifications = %d, want 1", st.Classifications)
	}
	// Another transaction in the watched cluster triggers re-classification.
	e.Process(mkTx("d.evil", "/more", "GET", 200, "text/html", 100, "http://d.evil/drop.exe", time.Second))
	if got := e.Stats().Classifications; got != 2 {
		t.Fatalf("classifications after update = %d, want 2", got)
	}
}

func TestAlertPerDownload(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	txs := infectionStream()
	txs = append(txs,
		// A second payload raises a second, download-centric alert.
		mkTx("d.evil", "/second.exe", "GET", 200, "application/x-msdownload", 10000, "http://d.evil/drop.exe", time.Second),
		// A plain page fetch in the same infectious cluster does not.
		mkTx("d.evil", "/page", "GET", 200, "text/html", 500, "http://d.evil/drop.exe", 2*time.Second))
	alerts := e.ProcessAll(txs)
	if len(alerts) != 2 {
		t.Fatalf("alerts = %d, want 2 (one per payload)", len(alerts))
	}
	if alerts[1].TriggerPayload != wcg.PayloadEXE {
		t.Fatalf("second alert payload = %v", alerts[1].TriggerPayload)
	}
}

func TestTrustedVendorWeeding(t *testing.T) {
	e := New(Config{Shards: 1, TrustedVendors: DefaultTrustedVendors}, constScorer(0.9))
	e.Process(mkTx("downloads.vendor-store.com", "/app.exe", "GET", 200, "application/x-msdownload", 5<<20, "", 0))
	e.Process(mkTx("cdn.apple.com", "/update.dmg", "GET", 200, "application/x-apple-diskimage", 9<<20, "", time.Second))
	st := e.Stats()
	if st.Weeded != 2 {
		t.Fatalf("weeded = %d, want 2", st.Weeded)
	}
	if st.Clusters != 0 {
		t.Fatal("trusted traffic must not open clusters")
	}
}

func TestSessionClusteringByCookie(t *testing.T) {
	e := New(Config{Shards: 1}, constScorer(0))
	a := mkTx("x.com", "/1", "GET", 200, "text/html", 10, "", 0)
	a.RespHdr.Set("Set-Cookie", "sid=42; Path=/")
	b := mkTx("y.com", "/2", "GET", 200, "text/html", 10, "", 10*time.Minute) // beyond gap
	b.ReqHdr.Set("Cookie", "sid=42")
	e.Process(a)
	e.Process(b)
	if e.Stats().Clusters != 1 {
		t.Fatalf("clusters = %d, want 1 (cookie links them)", e.Stats().Clusters)
	}
}

// TestSessionClusteringByReferer: past the session gap, a Referer naming
// one of a cluster's hosts links a transaction to it, and so does a host it
// already served. A cluster that never sees a cookie marks no session ID.
func TestSessionClusteringByReferer(t *testing.T) {
	e := New(Config{Shards: 1}, constScorer(0))
	e.Process(mkTx("first.com", "/", "GET", 200, "text/html", 10, "", 0))
	e.Process(mkTx("second.com", "/p", "GET", 200, "text/html", 10, "http://first.com/", 10*time.Minute))
	if e.Stats().Clusters != 1 {
		t.Fatalf("clusters = %d, want 1 (referer links them)", e.Stats().Clusters)
	}
	e.Process(mkTx("first.com", "/q", "GET", 200, "text/html", 10, "", 20*time.Minute))
	if e.Stats().Clusters != 1 {
		t.Fatalf("clusters = %d, want 1 (the served host links them)", e.Stats().Clusters)
	}
	c := e.shards[0].st.clusters[0]
	if len(c.hist) != 3 {
		t.Fatalf("cluster holds %d transactions, want 3", len(c.hist))
	}
	for i, h := range c.seen {
		if h.session {
			t.Fatalf("%q marked a session ID with no cookie seen", c.hosts.Names[i])
		}
	}
}

// TestHostTableRefererOnlyHostNotRecent: refRecent needs a host that served
// the cluster within clickGap. A host the cluster knows only from a Referer
// header never sets it, however recently it was named; nor at the zero
// time, where a served host does.
func TestHostTableRefererOnlyHostNotRecent(t *testing.T) {
	untimed := func(tx httpstream.Transaction) httpstream.Transaction {
		tx.ReqTime, tx.RespTime = time.Time{}, time.Time{}
		return tx
	}
	e := New(Config{Shards: 1}, constScorer(0))
	for _, tx := range []httpstream.Transaction{
		mkTx("a.com", "/", "GET", 200, "text/html", 10, "http://r.com/", 0),
		mkTx("b.com", "/", "GET", 200, "text/html", 10, "http://r.com/", 100*time.Millisecond),
		mkTx("c.com", "/", "GET", 200, "text/html", 10, "http://a.com/", 200*time.Millisecond),
		mkTx("d.com", "/", "GET", 200, "text/html", 10, "http://a.com/", 5*time.Second),
		untimed(mkTx("e.com", "/", "GET", 200, "text/html", 10, "http://r.com/", 0)),
		untimed(mkTx("f.com", "/", "GET", 200, "text/html", 10, "", 0)),
		untimed(mkTx("g.com", "/", "GET", 200, "text/html", 10, "http://f.com/", 0)),
	} {
		e.Process(tx)
	}
	if got := e.Stats().Clusters; got != 1 {
		t.Fatalf("clusters = %d, want 1", got)
	}
	c := e.shards[0].st.clusters[0]
	if !c.knows("r.com") || c.seen[mustLookup(t, c, "r.com")].served {
		t.Fatalf("r.com in the host table: %+v; want known and not served", c.seen[mustLookup(t, c, "r.com")])
	}
	for i, want := range []bool{false, false, true, false, false, false, true} {
		r := c.hist[i]
		if got := r.Flags&wcg.RecRefRecent != 0; got != want {
			t.Errorf("transaction %d (%s, Referer %s): refRecent = %v, want %v",
				i, c.hosts.Names[r.Host], c.hosts.Names[r.Ref], got, want)
		}
	}
}

// mustLookup is host's index in c's host table.
func mustLookup(t *testing.T, c *cluster, host string) int32 {
	t.Helper()
	i, ok := c.hosts.Lookup(host)
	if !ok {
		t.Fatalf("%q is not in the host table", host)
	}
	return i
}

// TestClusterBookkeepingAllocs pins what one benign session costs the
// engine: a fresh engine fed a 12-transaction session with cookies and
// referrers, less the engine alone. A cluster costs its struct (which
// holds its first records and host-table entries), its host table's map
// and its growing history.
// The bytes gates of the two allocation tests. A cluster's history holds
// fixed-size records, not transactions: the session reads 313 bytes per
// transaction, where a history of whole transactions read 795. The
// watched chain reads 951 over 40-byte pointer-free edges, 1 129 over
// 96-byte edges and 1 502 with whole transactions.
const (
	sessionBytesCeiling = 400
	chainBytesCeiling   = 1050
)

func TestClusterBookkeepingAllocs(t *testing.T) {
	page := func(host, uri, ct, ref string, at time.Duration) httpstream.Transaction {
		tx := mkTx(host, uri, "GET", 200, ct, 2000, ref, at)
		tx.ReqHdr.Set("Cookie", "sid=5f2a; theme=dark")
		return tx
	}
	home := mkTx("www.news.example", "/", "GET", 200, "text/html", 30000, "", 0)
	home.RespHdr.Set("Set-Cookie", "sid=5f2a; Path=/")
	const story = "http://www.news.example/story/7"
	session := []httpstream.Transaction{
		home,
		page("static.news.example", "/site.css", "text/css", "http://www.news.example/", 80*time.Millisecond),
		page("static.news.example", "/site.js", "application/javascript", "http://www.news.example/", 90*time.Millisecond),
		page("img.cdn.example", "/logo.png", "image/png", "http://www.news.example/", 120*time.Millisecond),
		page("www.news.example", "/story/7", "text/html", "http://www.news.example/", 9*time.Second),
		page("static.news.example", "/story.css", "text/css", story, 9100*time.Millisecond),
		page("img.cdn.example", "/7/hero.jpg", "image/jpeg", story, 9150*time.Millisecond),
		page("img.cdn.example", "/7/inline.jpg", "image/jpeg", story, 9160*time.Millisecond),
		page("ads.example", "/banner.js", "application/javascript", story, 9200*time.Millisecond),
		page("ads.example", "/pixel.gif", "image/gif", "http://ads.example/banner.js", 9400*time.Millisecond),
		page("www.news.example", "/comments/7", "text/html", story, 40*time.Second),
		page("img.cdn.example", "/avatar.png", "image/png", "http://www.news.example/comments/7", 40100*time.Millisecond),
	}
	cfg := Config{Shards: 1}
	feed := func() *Engine {
		e := New(cfg, constScorer(0))
		for _, tx := range session {
			e.Process(tx)
		}
		return e
	}
	if st := feed().Stats(); st.Clusters != 1 || st.CluesFired != 0 {
		t.Fatalf("the session opened %d clusters and fired %d clues; want 1 and 0", st.Clusters, st.CluesFired)
	}
	engine := testing.AllocsPerRun(20, func() { New(cfg, constScorer(0)) })
	fed := testing.AllocsPerRun(20, func() { feed() })
	const ceiling = 10
	got := fed - engine
	t.Logf("one %d-transaction session: %.0f allocations", len(session), got)
	if got > ceiling {
		t.Fatalf("one %d-transaction benign session allocates %.0f objects, want at most %d", len(session), got, ceiling)
	}
	perTx := (bytesPerRun(20, func() { feed() }) - bytesPerRun(20, func() { New(cfg, constScorer(0)) })) / float64(len(session))
	t.Logf("one %d-transaction session: %.0f bytes per transaction", len(session), perTx)
	if perTx > sessionBytesCeiling {
		t.Fatalf("one %d-transaction benign session allocates %.0f bytes per transaction, want at most %d", len(session), perTx, sessionBytesCeiling)
	}
}

// TestWatchedChainAllocs pins what the on-the-wire loop costs per
// transaction on a watched client: a 3-hop redirect chain and an EXE
// download that arm the watch, then 295 POST call-backs, every fourth to a
// host not contacted before (78 hosts in all). Every call-back
// re-classifies the growing watched WCG, and a quarter of them change its
// topology. Each run feeds one more such client to the same engine, so the
// shard's analytics workspace is warm, as it is once an engine has served
// its first watched client. Each client's feature cache is new, so a cache
// buffer resized to exactly n on every new host would show here (0.76
// allocations per transaction when it was).
func TestWatchedChainAllocs(t *testing.T) {
	const callbacks, runs = 295, 5
	chain := func(client int) []httpstream.Transaction {
		txs := infectionStream()
		at := 600 * time.Millisecond
		for k := 0; k < callbacks; k++ {
			host := k / 4 // a fresh host on every fourth call-back
			if k%4 != 0 {
				host = k * 37 % (k/4 + 1)
			}
			txs = append(txs, mkTx(fmt.Sprintf("cb%d.example", host), "/gate.php", "POST", 200, "text/plain", 64, "", at))
			at += 400 * time.Millisecond
		}
		for i := range txs {
			txs[i].ClientIP = netip.AddrFrom4([4]byte{10, 1, 0, byte(client)})
		}
		return txs
	}
	clients := make([][]httpstream.Transaction, 2*runs+3) // one to warm the engine, then each measurement's warm-up and runs
	for i := range clients {
		clients[i] = chain(i)
	}
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	next := 0
	feed := func() {
		for _, tx := range clients[next] {
			e.Process(tx)
		}
		next++
	}
	feed()
	if st := e.Stats(); st.Clusters != 1 || st.Alerts != 1 || st.Classifications != callbacks+1 || st.Rebuilds != 0 {
		t.Fatalf("one chain gave %+v; want one cluster, one alert, %d incremental classifications", st, callbacks+1)
	}
	const ceiling = 0.6
	got := testing.AllocsPerRun(runs, feed) / float64(len(clients[0]))
	t.Logf("one watched client, %d transactions: %.2f allocations per transaction", len(clients[0]), got)
	if got > ceiling {
		t.Fatalf("a watched chain allocates %.2f objects per transaction, want at most %.1f", got, ceiling)
	}
	perTx := bytesPerRun(runs, feed) / float64(len(clients[0]))
	t.Logf("one watched client, %d transactions: %.0f bytes per transaction", len(clients[0]), perTx)
	if perTx > chainBytesCeiling {
		t.Fatalf("a watched chain allocates %.0f bytes per transaction, want at most %d", perTx, chainBytesCeiling)
	}
}

// TestWatchedClusterScanBytes pins what the GC must scan of a watched
// cluster: one client's watch grown to maxClusterTxs transactions, POST
// call-backs spread over 448 hosts after the infection chain, holds at
// most scanBytesCeiling scannable heap bytes per transaction. Its history
// records and its live graph's edges and nodes hold no pointer, so what
// remains is the host table's strings and index and the graph's adjacency
// headers; with a time.Time and a method string in every edge and a host
// string and netip.Addr in every node it read ~233.
func TestWatchedClusterScanBytes(t *testing.T) {
	const hosts, scanBytesCeiling = 448, 20
	scan := func() uint64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	before := scan()
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.1))
	armed := infectionStream()
	e.ProcessAll(armed)
	callbacks := maxClusterTxs - len(armed)
	at := 600 * time.Millisecond
	for k := 0; k < callbacks; k++ {
		e.Process(mkTx(fmt.Sprintf("cb%d.example", k*hosts/callbacks), "/gate.php", "POST", 200, "text/plain", 64, "", at))
		at += 400 * time.Millisecond
	}
	perTx := float64(scan()-before) / maxClusterTxs
	if w := e.Watched(); len(w) != 1 || w[0].Transactions != maxClusterTxs {
		t.Fatalf("watched %+v; want one watch of %d transactions", w, maxClusterTxs)
	}
	runtime.KeepAlive(e)
	t.Logf("one watched cluster of %d transactions: %.1f scannable bytes per transaction", maxClusterTxs, perTx)
	if perTx > scanBytesCeiling {
		t.Fatalf("a watched cluster keeps %.1f scannable heap bytes per transaction, want at most %d", perTx, scanBytesCeiling)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean bytes one call
// of f allocates, after a warm-up call, with one P so no other goroutine
// allocates in between.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSessionGapOpensNewCluster pins the five-minute session gap: a
// transaction on a new host exactly 5 min after its client's last one
// joins that cluster, one a nanosecond later opens a new one.
func TestSessionGapOpensNewCluster(t *testing.T) {
	for _, c := range []struct {
		after    time.Duration
		clusters int
	}{{5 * time.Minute, 1}, {5*time.Minute + time.Nanosecond, 2}} {
		e := New(Config{Shards: 1}, constScorer(0))
		e.Process(mkTx("one.com", "/", "GET", 200, "text/html", 10, "", 0))
		e.Process(mkTx("two.com", "/", "GET", 200, "text/html", 10, "", c.after))
		if got := e.Stats().Clusters; got != c.clusters {
			t.Fatalf("second transaction %v later: clusters = %d, want %d", c.after, got, c.clusters)
		}
	}
}

// TestWatchIdleClosesWatch pins the three-minute watch idle bound: a
// related transaction exactly 3 min after the watch last grew still grows
// it, one a nanosecond later closes it.
func TestWatchIdleClosesWatch(t *testing.T) {
	armed := infectionStream()
	grewAt := 500 * time.Millisecond // the clue: the payload download
	for _, c := range []struct {
		after    time.Duration
		watching bool
	}{{3 * time.Minute, true}, {3*time.Minute + time.Nanosecond, false}} {
		e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.1))
		e.ProcessAll(armed)
		if w := e.Watched(); len(w) != 1 || w[0].LastGrowth != t0.Add(grewAt) {
			t.Fatalf("after the clue: watched %+v, want one watch last grown at the download", w)
		}
		e.Process(mkTx("d.evil", "/more", "GET", 200, "text/html", 10, "", grewAt+c.after))
		w := e.Watched()
		if got := len(w) == 1; got != c.watching {
			t.Fatalf("related transaction %v after the last growth: watching = %v, want %v", c.after, got, c.watching)
		}
		if c.watching && w[0].Transactions != len(armed)+1 {
			t.Fatalf("watch holds %d transactions, want %d", w[0].Transactions, len(armed)+1)
		}
	}
}

func TestClientsSeparated(t *testing.T) {
	e := New(Config{Shards: 1}, constScorer(0))
	a := mkTx("shared.com", "/", "GET", 200, "text/html", 10, "", 0)
	b := mkTx("shared.com", "/", "GET", 200, "text/html", 10, "", time.Second)
	b.ClientIP = netip.MustParseAddr("10.0.0.45")
	e.Process(a)
	e.Process(b)
	if e.Stats().Clusters != 2 {
		t.Fatalf("clusters = %d, want 2 (distinct clients)", e.Stats().Clusters)
	}
}

// TestEndToEndWithTrainedModel trains a real ERF the way deployment
// requires — on the clue-extracted potential-infection WCG subsets — and
// verifies the engine flags infections and passes benign sessions.
func TestEndToEndWithTrainedModel(t *testing.T) {
	eps := synth.GenerateCorpus(synth.Config{Seed: 99, Infections: 80, Benign: 80})
	extract := Config{RedirectThreshold: 1}
	ds := &ml.Dataset{}
	for _, ep := range eps {
		y := ml.LabelBenign
		if ep.Infection {
			y = ml.LabelInfection
		}
		subs := ClueSubsets(extract, ep.Txs)
		for _, sub := range subs {
			ds.X = append(ds.X, features.Extract(sub))
			ds.Y = append(ds.Y, y)
		}
		if len(subs) == 0 || !ep.Infection {
			ds.X = append(ds.X, features.Extract(wcg.FromTransactions(ep.Txs)))
			ds.Y = append(ds.Y, y)
		}
	}
	forest, err := ml.TrainForest(ds, ml.ForestConfig{NumTrees: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(123))
	detected := 0
	nInf := 40
	for i := 0; i < nInf; i++ {
		ep := synth.GenerateInfection("Angler", t0, rng)
		e := New(Config{Shards: 1, RedirectThreshold: 1}, forest)
		if len(e.ProcessAll(ep.Txs)) > 0 {
			detected++
		}
	}
	if detected < nInf*6/10 {
		t.Fatalf("detected %d/%d Angler episodes, too few", detected, nInf)
	}

	falseAlerts := 0
	nBen := 40
	for i := 0; i < nBen; i++ {
		ep := synth.GenerateBenign("search", t0, rng)
		e := New(Config{Shards: 1, RedirectThreshold: 1}, forest)
		if len(e.ProcessAll(ep.Txs)) > 0 {
			falseAlerts++
		}
	}
	if falseAlerts > nBen/5 {
		t.Fatalf("false alerts on %d/%d benign search sessions", falseAlerts, nBen)
	}
}

func TestCappedClusterSurvivesEviction(t *testing.T) {
	// A watched cluster holds at most 4096 transactions: the excess is
	// dropped, but the session is still active, so lastActive must track
	// the dropped traffic (or TTL eviction destroys a live watch) and the
	// drops must be visible in Stats.
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0))
	armed := infectionStream()
	e.ProcessAll(armed)
	// A related GET a minute: the watch never idles out.
	at := func(i int) time.Duration { return time.Duration(i+1-len(armed)) * time.Minute }
	for i := len(armed); i < maxClusterTxs; i++ {
		e.Process(mkTx("d.evil", fmt.Sprintf("/p%d", i), "GET", 200, "text/html", 10, "", at(i)))
	}
	if w := e.Watched(); len(w) != 1 || w[0].Transactions != maxClusterTxs {
		t.Fatalf("watched %+v; want one watch of %d transactions", w, maxClusterTxs)
	}
	if st := e.Stats(); st.Transactions != 4096 || st.Dropped != 0 {
		t.Fatalf("4096 transactions: %+v, want none dropped", st)
	}
	e.Process(mkTx("d.evil", "/p4096", "GET", 200, "text/html", 10, "", at(4096)))
	if st := e.Stats(); st.Dropped != 1 {
		t.Fatalf("transaction 4097: dropped = %d, want 1", st.Dropped)
	}
	for i := 4097; i < 4099; i++ {
		e.Process(mkTx("d.evil", fmt.Sprintf("/p%d", i), "GET", 200, "text/html", 10, "", at(i)))
	}
	st := e.Stats()
	if st.Transactions != 4099 || st.Clusters != 1 || st.Dropped != 3 {
		t.Fatalf("stats %+v, want 4099 transactions in one cluster, 3 dropped", st)
	}
	// Cutoff after the cap was reached (the 4096th transaction) but
	// before the last dropped one: the cluster is still active.
	if n := e.evictIdle(t0.Add(at(4097))); n != 0 {
		t.Fatalf("capped-but-active cluster evicted (%d)", n)
	}
	// A cutoff beyond the last activity still evicts.
	if n := e.evictIdle(t0.Add(at(4099))); n != 1 {
		t.Fatalf("idle capped cluster not evicted (%d)", n)
	}
}

// TestFullClusterStillDetects: a client whose unwatched session reached
// maxClusterTxs transactions is not invisible. Its full cluster is
// evicted when the next transaction arrives, and an infection that
// follows opens a fresh cluster and alerts, whether its first hop is a
// new host or carries a Referer the full cluster knows.
func TestFullClusterStillDetects(t *testing.T) {
	for _, tc := range []struct {
		name, referer string
	}{
		{"new host", ""},
		{"known referer", "http://busy.com/p7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
			var at time.Duration
			for i := 0; i < maxClusterTxs; i++ {
				e.Process(mkTx("busy.com", fmt.Sprintf("/p%d", i), "GET", 200, "text/html", 10, "", at))
				at += 2 * time.Second
			}
			infection := infectionStream()
			infection[0].ReqHdr.Set("Referer", tc.referer)
			var alerts []Alert
			for _, tx := range infection {
				tx.ReqTime, tx.RespTime = tx.ReqTime.Add(at), tx.RespTime.Add(at)
				alerts = append(alerts, e.Process(tx)...)
			}
			if st := e.Stats(); len(alerts) != 1 || st.Dropped != 0 || st.Evicted != 1 || st.Clusters != 2 {
				t.Fatalf("%d alerts, stats %+v; want 1 alert, the full cluster evicted and none dropped", len(alerts), st)
			}
		})
	}
}

func TestTrustedVendorCaseInsensitive(t *testing.T) {
	e := New(Config{Shards: 1, TrustedVendors: []string{"Apple.COM"}}, constScorer(0.9))
	e.Process(mkTx("CDN.Apple.com", "/update.dmg", "GET", 200, "application/x-apple-diskimage", 1<<20, "", 0))
	if st := e.Stats(); st.Weeded != 1 || st.Clusters != 0 {
		t.Fatalf("stats %+v: mixed-case trusted host not weeded", st)
	}
}

func TestHostCaseInsensitiveClustering(t *testing.T) {
	e := New(Config{Shards: 1}, constScorer(0))
	e.Process(mkTx("First.com", "/", "GET", 200, "text/html", 10, "", 0))
	// Beyond the session gap, so only referrer linkage can join them.
	e.Process(mkTx("second.com", "/p", "GET", 200, "text/html", 10, "http://FIRST.com/", 10*time.Minute))
	if e.Stats().Clusters != 1 {
		t.Fatalf("clusters = %d, want 1 (case-folded referer must link)", e.Stats().Clusters)
	}
}

func TestMixedCaseInfectionChainAlerts(t *testing.T) {
	// DNS names are case-insensitive: a chain whose Host, Referer, and
	// Location headers disagree on case must still link up and alert.
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	txs := []httpstream.Transaction{
		redirectTx("A.Evil", "B.EVIL", 0),
		mkTx("b.evil", "/x", "GET", 302, "", 0, "http://A.evil/r", 100*time.Millisecond),
		redirectTx("B.evil", "C.evil", 150*time.Millisecond),
		redirectTx("c.EVIL", "d.evil", 300*time.Millisecond),
		mkTx("D.Evil", "/drop.exe", "GET", 200, "application/x-msdownload", 90000, "http://C.evil/r", 500*time.Millisecond),
	}
	alerts := e.ProcessAll(txs)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1 (stats %+v)", len(alerts), e.Stats())
	}
	if alerts[0].TriggerHost != "d.evil" {
		t.Fatalf("trigger host = %q, want lowercase d.evil", alerts[0].TriggerHost)
	}
	if e.Stats().Clusters != 1 {
		t.Fatalf("clusters = %d, want 1", e.Stats().Clusters)
	}
}

func TestAlertTimeFallbackToReqTime(t *testing.T) {
	// A triggering transaction that never got a response (zero RespTime,
	// e.g. an upstream timeout in a replay) must still stamp the alert.
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	txs := infectionStream()
	txs[len(txs)-1].RespTime = time.Time{}
	alerts := e.ProcessAll(txs)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if alerts[0].Time.IsZero() {
		t.Fatal("alert stamped with the zero time")
	}
	if want := t0.Add(500 * time.Millisecond); !alerts[0].Time.Equal(want) {
		t.Fatalf("alert time = %v, want request time %v", alerts[0].Time, want)
	}
}

func TestRefererHost(t *testing.T) {
	tx := mkTx("a.com", "/", "GET", 200, "text/html", 1, "http://ref.net:8080/p?q=1", 0)
	if got := wcg.KeysOf(&tx).Ref; got != "ref.net" {
		t.Fatalf("referer host = %q", got)
	}
	tx2 := mkTx("a.com", "/", "GET", 200, "text/html", 1, "", 0)
	if wcg.KeysOf(&tx2).Ref != "" {
		t.Fatal("empty referer must give empty host")
	}
}

// TestConfigDefaults pins the zero value of the one tunable that has a
// default: the clue threshold L.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.RedirectThreshold != 3 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestEvictIdle(t *testing.T) {
	e := New(Config{Shards: 1}, constScorer(0))
	e.Process(mkTx("old.com", "/", "GET", 200, "text/html", 10, "", 0))
	b := mkTx("new.com", "/", "GET", 200, "text/html", 10, "", 2*time.Hour)
	b.ClientIP = netip.MustParseAddr("10.0.0.99")
	e.Process(b)
	if e.Stats().Clusters != 2 {
		t.Fatalf("clusters = %d", e.Stats().Clusters)
	}
	n := e.evictIdle(t0.Add(time.Hour))
	if n != 1 {
		t.Fatalf("evicted = %d, want 1", n)
	}
	if e.Stats().Evicted != 1 {
		t.Fatalf("stats.Evicted = %d", e.Stats().Evicted)
	}
	// The surviving client's traffic still clusters correctly.
	c := mkTx("new.com", "/2", "GET", 200, "text/html", 10, "", 2*time.Hour+time.Minute)
	c.ClientIP = netip.MustParseAddr("10.0.0.99")
	e.Process(c)
	if got := e.Stats().Clusters; got != 2 {
		t.Fatalf("clusters after eviction+reuse = %d, want 2 (no new cluster)", got)
	}
	// The evicted client starts fresh.
	d := mkTx("old.com", "/again", "GET", 200, "text/html", 10, "", 3*time.Hour)
	e.Process(d)
	if got := e.Stats().Clusters; got != 3 {
		t.Fatalf("clusters after evicted client returns = %d, want 3", got)
	}
}

// TestClusterIDsNeverRepeat pins that an eviction never lets a new
// cluster take the ID of one still live: X opens a cluster at 0 and
// another 10 min later, Y one at 0; the sweep at 5 min evicts X's first
// and Y's, and the clusters Y and X open after it must not reuse an ID
// X's second cluster still holds (MarkAlerted, replaying a journal,
// would mark whichever it met first).
func TestClusterIDsNeverRepeat(t *testing.T) {
	e := New(Config{Shards: 1}, constScorer(0))
	y := netip.MustParseAddr("10.0.0.99")
	asY := func(tx httpstream.Transaction) httpstream.Transaction { tx.ClientIP = y; return tx }
	e.Process(mkTx("h1.com", "/", "GET", 200, "text/html", 10, "", 0))
	e.Process(asY(mkTx("h2.com", "/", "GET", 200, "text/html", 10, "", 0)))
	e.Process(mkTx("h3.com", "/", "GET", 200, "text/html", 10, "", 10*time.Minute))
	if n := e.evictIdle(t0.Add(5 * time.Minute)); n != 2 {
		t.Fatalf("evicted %d clusters, want X's first and Y's", n)
	}
	e.Process(asY(mkTx("h4.com", "/", "GET", 200, "text/html", 10, "", 70*time.Minute)))
	e.Process(mkTx("h5.com", "/", "GET", 200, "text/html", 10, "", 80*time.Minute))

	live := e.shards[0].st.clusters
	if len(live) != 3 {
		t.Fatalf("%d live clusters, want X's second and the two opened after the sweep", len(live))
	}
	seen := map[int]bool{}
	for _, c := range live {
		if seen[c.id] {
			t.Fatalf("two live clusters hold ID %d", c.id)
		}
		seen[c.id] = true
	}
}

func TestAutomaticEviction(t *testing.T) {
	e := New(Config{Shards: 1}, constScorer(0))
	// Many single-host clusters spread over days trigger periodic sweeps
	// (distinct hosts, past the session gap, so nothing re-clusters).
	for i := 0; i < 2*evictEvery; i++ {
		host := fmt.Sprintf("h%d.com", i)
		tx := mkTx(host, "/", "GET", 200, "text/html", 10, "", time.Duration(i)*6*time.Minute)
		e.Process(tx)
	}
	if e.Stats().Evicted == 0 {
		t.Fatal("automatic eviction never ran")
	}
	if live := e.Stats().Clusters - e.Stats().Evicted; live > evictEvery {
		t.Fatalf("live clusters = %d, eviction not bounding memory", live)
	}
}

// TestClusterTTLBoundary pins the one-hour cluster TTL: a cluster idle
// exactly 1 h survives the inline sweep (run on every evictEvery-th
// transaction) and a sweep at the same instant's TTL cutoff; idle
// 1 h + 1 ns, it is evicted by either.
func TestClusterTTLBoundary(t *testing.T) {
	other := netip.MustParseAddr("10.0.0.99")
	for _, c := range []struct {
		idle    time.Duration
		evicted int
	}{{time.Hour, 0}, {time.Hour + time.Nanosecond, 1}} {
		// Inline: the other client's transactions all carry the sweep's
		// time, so only old.com's cluster can be idle.
		e := New(Config{Shards: 1}, constScorer(0))
		e.Process(mkTx("old.com", "/", "GET", 200, "text/html", 10, "", 0))
		for i := 1; i < evictEvery; i++ {
			tx := mkTx("new.com", fmt.Sprintf("/%d", i), "GET", 200, "text/html", 10, "", c.idle)
			tx.ClientIP = other
			e.Process(tx)
		}
		if got := e.Stats().Evicted; got != c.evicted {
			t.Fatalf("inline sweep %v after the last activity: evicted %d, want %d", c.idle, got, c.evicted)
		}

		e = New(Config{Shards: 1}, constScorer(0))
		e.Process(mkTx("old.com", "/", "GET", 200, "text/html", 10, "", 0))
		if got := e.evictIdle(t0.Add(c.idle - clusterTTL)); got != c.evicted {
			t.Fatalf("TTL sweep %v after the last activity: evicted %d, want %d", c.idle, got, c.evicted)
		}
	}
}

func TestWatchedSnapshots(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.1))
	if len(e.Watched()) != 0 {
		t.Fatal("nothing should be watched initially")
	}
	e.ProcessAll(infectionStream())
	watched := e.Watched()
	if len(watched) != 1 {
		t.Fatalf("watched = %d, want 1", len(watched))
	}
	w := watched[0]
	if w.Client != clientIP || w.Transactions < 4 || w.Hosts < 3 {
		t.Fatalf("snapshot = %+v", w)
	}
	if w.LastGrowth.IsZero() {
		t.Fatal("LastGrowth unset")
	}
	// Closing the watch (idle) clears the snapshot list.
	e.Process(mkTx("later.com", "/", "GET", 200, "text/html", 10, "http://d.evil/drop.exe", 4*time.Minute))
	if len(e.Watched()) != 0 {
		t.Fatalf("watched after idle close = %d, want 0", len(e.Watched()))
	}
}

func TestAlertMarshalJSON(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	alerts := e.ProcessAll(infectionStream())
	if len(alerts) != 1 {
		t.Fatal("need one alert")
	}
	data, err := json.Marshal(alerts[0])
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["client"] != clientIP.String() || decoded["payload"] != "exe" {
		t.Fatalf("json = %s", data)
	}
	if decoded["wcgOrder"].(float64) < 4 {
		t.Fatalf("wcgOrder = %v", decoded["wcgOrder"])
	}
}

func TestAlertZeroTimeRendering(t *testing.T) {
	// An alert that somehow carries no timestamp must not render as the
	// zero time ("0001-01-01...", year 1): JSON serializes it as "" and
	// FormatTime says "unset", so a SIEM timeline is never silently
	// corrupted.
	var a Alert
	if got := a.FormatTime(time.RFC3339); got != "unset" {
		t.Fatalf("FormatTime on zero alert = %q, want \"unset\"", got)
	}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "0001-01-01") {
		t.Fatalf("zero time leaked into JSON: %s", data)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["time"] != "" {
		t.Fatalf("time = %q, want empty string for unset", decoded["time"])
	}

	// A stamped alert still round-trips its timestamp.
	a.Time = time.Date(2016, 7, 10, 19, 30, 0, 0, time.UTC)
	if got := a.FormatTime("15:04:05"); got != "19:30:00" {
		t.Fatalf("FormatTime = %q", got)
	}
	data, err = json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "2016-07-10T19:30:00Z") {
		t.Fatalf("stamped time missing from JSON: %s", data)
	}
}

func TestFreshHostPOSTJoinsWatchedWCG(t *testing.T) {
	// After the clue fires, a POST to a host never seen pre-download (a
	// C&C call-back) must join the potential-infection WCG even without
	// any referrer or host linkage.
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.1))
	e.ProcessAll(infectionStream())
	before := e.Stats().Classifications
	cnc := mkTx("203.0.113.66", "/beacon.php", "POST", 200, "text/plain", 16, "", 2*time.Second)
	e.Process(cnc)
	if got := e.Stats().Classifications; got != before+1 {
		t.Fatalf("classifications = %d, want %d (callback must re-classify)", got, before+1)
	}
	w := e.Watched()
	if len(w) != 1 {
		t.Fatal("watch lost")
	}
	// An unrelated GET to a fresh host does NOT join.
	e.Process(mkTx("random.org", "/", "GET", 200, "text/html", 10, "", 3*time.Second))
	if got := e.Stats().Classifications; got != before+1 {
		t.Fatalf("unrelated GET re-classified (%d)", got)
	}
}
