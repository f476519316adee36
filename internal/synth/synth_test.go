package synth

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/wcg"
)

var testStart = time.Date(2016, 4, 1, 12, 0, 0, 0, time.UTC)

func TestGenerateCorpusCountsAndLabels(t *testing.T) {
	eps := GenerateCorpus(Config{Seed: 1, Infections: 50, Benign: 60})
	if len(eps) != 110 {
		t.Fatalf("episodes = %d, want 110", len(eps))
	}
	inf, ben := 0, 0
	for _, e := range eps {
		if e.Infection {
			inf++
			if e.Family == "Benign" {
				t.Fatal("infection labeled Benign family")
			}
		} else {
			ben++
			if e.Family != "Benign" {
				t.Fatalf("benign episode has family %q", e.Family)
			}
		}
		if len(e.Txs) == 0 {
			t.Fatal("episode has no transactions")
		}
	}
	if inf != 50 || ben != 60 {
		t.Fatalf("inf=%d ben=%d", inf, ben)
	}
}

func TestGenerateCorpusDeterministic(t *testing.T) {
	a := GenerateCorpus(Config{Seed: 7, Infections: 20, Benign: 20})
	b := GenerateCorpus(Config{Seed: 7, Infections: 20, Benign: 20})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Family != b[i].Family || len(a[i].Txs) != len(b[i].Txs) {
			t.Fatalf("episode %d differs: %s/%d vs %s/%d",
				i, a[i].Family, len(a[i].Txs), b[i].Family, len(b[i].Txs))
		}
		for j := range a[i].Txs {
			if a[i].Txs[j].Host != b[i].Txs[j].Host || !a[i].Txs[j].ReqTime.Equal(b[i].Txs[j].ReqTime) {
				t.Fatalf("tx %d/%d differs", i, j)
			}
		}
	}
	c := GenerateCorpus(Config{Seed: 8, Infections: 20, Benign: 20})
	same := true
	for i := range a {
		if a[i].Family != c[i].Family || len(a[i].Txs) != len(c[i].Txs) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestFamilyByName(t *testing.T) {
	f, err := FamilyByName("Angler")
	if err != nil || f.Weight != 253 {
		t.Fatalf("Angler lookup: %+v, %v", f, err)
	}
	if _, err := FamilyByName("NoSuchKit"); err == nil {
		t.Fatal("unknown family must error")
	}
}

func TestFamilyWeightsSumTo770(t *testing.T) {
	total := 0
	for _, f := range Families {
		total += f.Weight
	}
	if total != 770 {
		t.Fatalf("family weights sum to %d, want 770", total)
	}
}

func TestInfectionEpisodeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	withExploit, withCallback, n := 0, 0, 200
	for i := 0; i < n; i++ {
		ep := GenerateInfection("Angler", testStart, rng)
		if !ep.Infection || ep.Family != "Angler" {
			t.Fatal("episode metadata wrong")
		}
		w := wcg.FromTransactions(ep.Txs)
		if w.Order() < 2 {
			t.Fatalf("infection WCG order = %d", w.Order())
		}
		s := w.Summarize()
		if s.DownloadedExploits > 0 {
			withExploit++
		}
		if s.HasCallback {
			withCallback++
		}
	}
	// ~88% carry exploit payloads (the rest are the stealthy FN variant).
	if withExploit < n*75/100 {
		t.Fatalf("episodes with exploit download = %d/%d, too few", withExploit, n)
	}
	// Callback present in most episodes with downloads (paper: 708/770).
	if withCallback < n*60/100 {
		t.Fatalf("episodes with callback = %d/%d, too few", withCallback, n)
	}
}

func TestInfectionHostCountsWithinTableI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, fam := range Families {
		for i := 0; i < 30; i++ {
			ep := GenerateInfection(fam.Name, testStart, rng)
			hosts := make(map[string]bool)
			for _, tx := range ep.Txs {
				hosts[tx.Host] = true
			}
			// Table I: at least a client and one remote host; host counts
			// bounded by the family maximum (+ slack for the victim,
			// callback endpoints, and interleaved background browsing).
			if len(hosts) < 1 {
				t.Fatalf("%s: no hosts", fam.Name)
			}
			if len(hosts) > fam.HostsMax+16 {
				t.Fatalf("%s: %d hosts exceeds family max %d", fam.Name, len(hosts), fam.HostsMax)
			}
		}
	}
}

func TestUnknownFamilyFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ep := GenerateInfection("Mystery", testStart, rng)
	if ep.Family != "Other Kits" {
		t.Fatalf("fallback family = %q", ep.Family)
	}
}

func TestEnticementDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	counts := make(map[string]int)
	n := 3000
	for i := 0; i < n; i++ {
		counts[pickEnticement(rng)]++
	}
	frac := func(k string) float64 { return float64(counts[k]) / float64(n) }
	if f := frac("google"); f < 0.32 || f > 0.42 {
		t.Fatalf("google share = %v, want ~0.37", f)
	}
	if f := frac("bing"); f < 0.20 || f > 0.30 {
		t.Fatalf("bing share = %v, want ~0.25", f)
	}
	if f := frac("social"); f > 0.03 {
		t.Fatalf("social share = %v, want < 1%%-ish", f)
	}
	if f := frac("compromised"); f < 0.09 || f > 0.17 {
		t.Fatalf("compromised share = %v, want ~0.13", f)
	}
}

func TestBenignScenarios(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sc := range []string{"search", "social", "webmail", "video", "alexa", "unofficial-download", "torrent"} {
		ep := GenerateBenign(sc, testStart, rng)
		if ep.Infection {
			t.Fatalf("%s labeled infection", sc)
		}
		if ep.Enticement != sc {
			t.Fatalf("scenario = %q, want %q", ep.Enticement, sc)
		}
		if len(ep.Txs) == 0 {
			t.Fatalf("%s produced no transactions", sc)
		}
	}
}

func TestBenignRedirectsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	over := 0
	n := 150
	for i := 0; i < n; i++ {
		ep := GenerateBenign(benignScenario(rng), testStart, rng)
		w := wcg.FromTransactions(ep.Txs)
		if st := w.RedirectStats(); st.MaxChainLen > 3 {
			over++
		}
	}
	if over > n/10 {
		t.Fatalf("%d/%d benign episodes with long redirect chains", over, n)
	}
}

// TestClassSeparationShape verifies the core distributional claims the
// detector depends on: infection WCGs are larger, have more redirects, and
// move faster than benign WCGs on average (Figures 3, 4 and Table IV).
func TestClassSeparationShape(t *testing.T) {
	eps := GenerateCorpus(Config{Seed: 21, Infections: 120, Benign: 120})
	var (
		infOrder, benOrder float64
		infRedir, benRedir float64
		infInter, benInter float64
		infCount, benCount float64
	)
	for _, e := range eps {
		w := wcg.FromTransactions(e.Txs)
		s := w.Summarize()
		if e.Infection {
			infOrder += float64(s.Order)
			infRedir += float64(s.Redirects.TotalRedirects)
			infInter += s.AvgInterTransact.Seconds()
			infCount++
		} else {
			benOrder += float64(s.Order)
			benRedir += float64(s.Redirects.TotalRedirects)
			benInter += s.AvgInterTransact.Seconds()
			benCount++
		}
	}
	if infOrder/infCount <= benOrder/benCount {
		t.Fatalf("avg order: infection %.2f <= benign %.2f", infOrder/infCount, benOrder/benCount)
	}
	if infRedir/infCount <= benRedir/benCount {
		t.Fatalf("avg redirects: infection %.2f <= benign %.2f", infRedir/infCount, benRedir/benCount)
	}
	if infInter/infCount >= benInter/benCount {
		t.Fatalf("avg inter-tx: infection %.2fs >= benign %.2fs", infInter/infCount, benInter/benCount)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ep := GenerateInfection("RIG", testStart, rng)
	var buf bytes.Buffer
	if err := ep.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	txs, err := httpstream.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != len(ep.Txs) {
		t.Fatalf("pcap path recovered %d transactions, want %d", len(txs), len(ep.Txs))
	}
	// The WCGs from both paths must agree on structure.
	direct := wcg.FromTransactions(ep.Txs)
	viaPcap := wcg.FromTransactions(txs)
	if direct.Order() != viaPcap.Order() {
		t.Fatalf("order differs: direct=%d pcap=%d", direct.Order(), viaPcap.Order())
	}
	ds, ps := direct.Summarize(), viaPcap.Summarize()
	if ds.GETs != ps.GETs || ds.POSTs != ps.POSTs {
		t.Fatalf("method counts differ: %d/%d vs %d/%d", ds.GETs, ds.POSTs, ps.GETs, ps.POSTs)
	}
	if ds.Redirects.TotalRedirects != ps.Redirects.TotalRedirects {
		t.Fatalf("redirects differ: %d vs %d", ds.Redirects.TotalRedirects, ps.Redirects.TotalRedirects)
	}
	if ds.DownloadedExploits != ps.DownloadedExploits {
		t.Fatalf("exploit downloads differ: %d vs %d", ds.DownloadedExploits, ps.DownloadedExploits)
	}
}

func TestRenderBenignRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ep := GenerateBenign("search", testStart, rng)
	var buf bytes.Buffer
	if err := ep.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	txs, err := httpstream.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != len(ep.Txs) {
		t.Fatalf("recovered %d transactions, want %d", len(txs), len(ep.Txs))
	}
}

func TestIPForHostStable(t *testing.T) {
	a := ipForHost("example.com")
	b := ipForHost("example.com")
	c := ipForHost("other.net")
	if a != b {
		t.Fatal("same host must map to same IP")
	}
	if a == c {
		t.Fatal("different hosts should map to different IPs")
	}
	if !a.Is4() {
		t.Fatal("must be IPv4")
	}
}

func TestSampleHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		v := sampleCount(6, 74, rng)
		if v < 3 || v > 74 {
			t.Fatalf("sampleCount out of range: %d", v)
		}
	}
	if sampleCount(0, 10, rng) != 0 {
		t.Fatal("zero-avg sampleCount must be 0")
	}
	sum := 0
	for i := 0; i < 2000; i++ {
		sum += samplePoissonish(2.5, rng)
	}
	mean := float64(sum) / 2000
	if mean < 2.0 || mean > 3.2 {
		t.Fatalf("poissonish mean = %v, want ~2.5", mean)
	}
}

func TestEvasionModesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 20; i++ {
		fam := Families[i%len(Families)].Name

		ep, err := GenerateEvasiveInfection("fileless", fam, testStart, rng)
		if err != nil {
			t.Fatal(err)
		}
		s := wcg.FromTransactions(ep.Txs).Summarize()
		if s.DownloadedExploits != 0 {
			t.Fatalf("fileless episode downloaded %d exploit payloads", s.DownloadedExploits)
		}

		ep, err = GenerateEvasiveInfection("no-redirect", fam, testStart, rng)
		if err != nil {
			t.Fatal(err)
		}
		w := wcg.FromTransactions(ep.Txs)
		// Only the origin hop and landing iframe remain possible.
		if st := w.RedirectStats(); st.MaxChainLen > 2 {
			t.Fatalf("no-redirect episode has chain of %d", st.MaxChainLen)
		}
		if w.Summarize().DownloadedExploits == 0 {
			t.Fatal("no-redirect episode must still drop a payload")
		}

		ep, err = GenerateEvasiveInfection("compressed-payload", fam, testStart, rng)
		if err != nil {
			t.Fatal(err)
		}
		s = wcg.FromTransactions(ep.Txs).Summarize()
		if s.DownloadedExploits != 0 {
			t.Fatal("compressed payload must not register as exploit class")
		}
		if s.PayloadCounts[wcg.PayloadArchive] == 0 {
			t.Fatal("compressed payload missing")
		}

		ep, err = GenerateEvasiveInfection("no-callback", fam, testStart, rng)
		if err != nil {
			t.Fatal(err)
		}
		if wcg.FromTransactions(ep.Txs).Summarize().HasCallback {
			t.Fatal("no-callback episode has a callback")
		}
	}
	if _, err := GenerateEvasiveInfection("warp-drive", "Angler", testStart, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("unknown mode must error")
	}
	// "none" behaves like the plain generator.
	ep, err := GenerateEvasiveInfection("none", "Angler", testStart, rand.New(rand.NewSource(9)))
	if err != nil || !ep.Infection {
		t.Fatalf("none mode: %v %v", ep.Infection, err)
	}
}

func TestDelayedCallbackStretchesDuration(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	slow, fast := 0, 0
	for i := 0; i < 20; i++ {
		dl, err := GenerateEvasiveInfection("delayed-callback", "Nuclear", testStart, rng)
		if err != nil {
			t.Fatal(err)
		}
		plain := GenerateInfection("Nuclear", testStart, rng)
		if wcg.FromTransactions(dl.Txs).Duration() > wcg.FromTransactions(plain.Txs).Duration() {
			slow++
		} else {
			fast++
		}
	}
	if slow < 15 {
		t.Fatalf("delayed-callback longer in only %d/20 trials", slow)
	}
}

func TestWritePCAPNGRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ep := GenerateInfection("Neutrino", testStart, rng)
	var buf bytes.Buffer
	if err := ep.WritePCAPNG(&buf); err != nil {
		t.Fatal(err)
	}
	txs, err := httpstream.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != len(ep.Txs) {
		t.Fatalf("pcapng path recovered %d transactions, want %d", len(txs), len(ep.Txs))
	}
}
