package experiments

import (
	"net/netip"
	"os"
	"strings"
	"testing"

	"dynaminer/internal/features"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
)

// smallOpts keeps unit tests quick; TestWriteMarkdownReportPaperScale
// pins the paper-scale report.
var smallOpts = Options{
	Seed:            3,
	TrainInfections: 160,
	TrainBenign:     200,
	ValInfections:   300,
	ValBenign:       120,
	Folds:           5,
	Trees:           12,
}

func TestTableI(t *testing.T) {
	eps := GroundTruth(smallOpts)
	res := TableI(eps)
	if len(res.Rows) != 11 { // Benign + 9 families + Other Kits
		t.Fatalf("rows = %d, want 11", len(res.Rows))
	}
	if res.Rows[0].Family != "Benign" {
		t.Fatal("first row must be Benign")
	}
	total := 0
	for _, row := range res.Rows[1:] {
		total += row.Episodes
	}
	if total != smallOpts.TrainInfections {
		t.Fatalf("infection episodes = %d, want %d", total, smallOpts.TrainInfections)
	}
	// Benign redirects stay small; infection hosts exceed benign hosts.
	benign := res.Rows[0]
	if benign.RedirAvg > 1.0 {
		t.Fatalf("benign avg redirects = %v, want < 1", benign.RedirAvg)
	}
	var angler TableIRow
	for _, row := range res.Rows {
		if row.Family == "Angler" {
			angler = row
		}
	}
	if angler.Episodes == 0 {
		t.Fatal("no Angler episodes at this scale")
	}
	if angler.JS == 0 {
		t.Fatal("Angler JS payload count must be positive")
	}
	if !strings.Contains(res.String(), "Angler") {
		t.Fatal("rendering broken")
	}
}

func TestFigure1And2(t *testing.T) {
	eps := GroundTruth(smallOpts)
	f1 := Figure1(eps)
	sum := 0.0
	var google, social float64
	for _, row := range f1.Rows {
		sum += row.Pct
		switch row.Category {
		case "google":
			google = row.Pct
		case "social":
			social = row.Pct
		}
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("figure 1 percentages sum to %v", sum)
	}
	if google < 25 || google > 50 {
		t.Fatalf("google share = %v, want ~37", google)
	}
	if social > 5 {
		t.Fatalf("social share = %v, want ~1", social)
	}

	f2 := Figure2(eps)
	if len(f2.Families) != 10 || len(f2.Pct) != 10 {
		t.Fatalf("figure 2 families = %d", len(f2.Families))
	}
	if !strings.Contains(f2.String(), "Angler") {
		t.Fatal("figure 2 rendering broken")
	}
}

func TestFigure3And4Shapes(t *testing.T) {
	eps := GroundTruth(smallOpts)
	f3 := Figure3(eps)
	get := func(r PropResult, name string) PropRow {
		for _, row := range r.Rows {
			if row.Property == name {
				return row
			}
		}
		t.Fatalf("property %s missing", name)
		return PropRow{}
	}
	// Figure 3 shape: infection graphs have more nodes, edges, diameter,
	// degree, volume; lower closeness/betweenness centralities.
	for _, p := range []string{"nodes", "edges", "diameter", "max-degree", "volume"} {
		row := get(f3, p)
		if row.Infection <= row.Benign {
			t.Errorf("%s: infection %v <= benign %v", p, row.Infection, row.Benign)
		}
	}
	for _, p := range []string{"closeness-centrality", "betweenness-centrality", "degree-centrality"} {
		row := get(f3, p)
		if row.Infection >= row.Benign {
			t.Errorf("%s: infection %v >= benign %v (paper: lower for infections)", p, row.Infection, row.Benign)
		}
	}

	f4 := Figure4(eps)
	for _, p := range []string{"GETs", "POSTs", "HTTP-30X", "HTTP-40X", "redirections"} {
		row := get(f4, p)
		if row.Infection <= row.Benign {
			t.Errorf("%s: infection %v <= benign %v", p, row.Infection, row.Benign)
		}
	}
}

func TestFigure6(t *testing.T) {
	res := Figure6(smallOpts)
	if res.Order < 3 || res.Size < 4 {
		t.Fatalf("figure 6 WCG too small: order=%d size=%d", res.Order, res.Size)
	}
	if !strings.Contains(res.DOT, "digraph wcg") {
		t.Fatal("missing DOT header")
	}
}

func TestFigures7to9(t *testing.T) {
	eps := GroundTruth(smallOpts)
	series := Figures7to9(eps)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		// Deciles must be monotone.
		for i := 1; i <= 10; i++ {
			if s.Infection[i] < s.Infection[i-1] || s.Benign[i] < s.Benign[i-1] {
				t.Fatalf("%s deciles not monotone", s.Metric)
			}
		}
		if s.String() == "" {
			t.Fatal("empty rendering")
		}
	}
	// Figures 8-9 shape: centralities lower for infections on average.
	if series[1].InfMean >= series[1].BenMean {
		t.Errorf("betweenness: infection mean %v >= benign %v", series[1].InfMean, series[1].BenMean)
	}
	if series[2].InfMean >= series[2].BenMean {
		t.Errorf("closeness: infection mean %v >= benign %v", series[2].InfMean, series[2].BenMean)
	}
}

func TestTableIIIOrdering(t *testing.T) {
	ds := BuildDataset(GroundTruth(smallOpts))
	res, err := TableIII(ds, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	all, gf, rest := res.Rows[0], res.Rows[1], res.Rows[2]
	t.Logf("\n%s", res)
	// The paper's stated combination effect (Section VI-A): relative to
	// graph features alone, combining all features improves TPR and
	// clearly drops FPR.
	if all.TPR < gf.TPR {
		t.Errorf("All TPR %v below GFs %v", all.TPR, gf.TPR)
	}
	if all.FPR > gf.FPR {
		t.Errorf("All FPR %v above GFs %v", all.FPR, gf.FPR)
	}
	// Graph features alone carry strong signal (paper: 0.958/0.059).
	if gf.TPR < 0.85 || gf.FPR > 0.15 {
		t.Errorf("GFs weak: TPR=%v FPR=%v", gf.TPR, gf.FPR)
	}
	// Every group is informative, and the full model is strong overall.
	if rest.TPR < 0.7 {
		t.Errorf("header group TPR = %v, implausibly weak", rest.TPR)
	}
	if all.TPR < 0.9 || all.ROCArea < 0.97 {
		t.Errorf("All TPR/ROC = %v/%v, want high", all.TPR, all.ROCArea)
	}
}

func TestTableIVTop20(t *testing.T) {
	ds := BuildDataset(GroundTruth(smallOpts))
	res := TableIV(ds, smallOpts)
	if len(res.Rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(res.Rows))
	}
	t.Logf("\n%s", res)
	// Paper shape: graph features are the largest block in the top 20
	// (the paper reports 15/20; our corpus yields 8-10 with several of the
	// remaining slots held by size-carrying HLF/HF counts — the divergence
	// is documented in EXPERIMENTS.md) and the temporal features rank at
	// the very top.
	if res.GraphFeatureCount() < 8 {
		t.Errorf("graph features in top-20 = %d, want the largest block", res.GraphFeatureCount())
	}
	temporalNearTop := false
	for _, row := range res.Rows[:5] {
		if row.Group == features.TF {
			temporalNearTop = true
		}
	}
	if !temporalNearTop {
		t.Error("no temporal feature in the top 5 (paper: they rank 1-2)")
	}
	// Ranks must be ascending.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].RankMean < res.Rows[i-1].RankMean {
			t.Fatal("rows not sorted by rank")
		}
	}
}

func TestFigure10(t *testing.T) {
	ds := BuildDataset(GroundTruth(smallOpts))
	res, err := Figure10(ds, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.AUC < 0.93 {
		t.Fatalf("AUC = %v, want high", res.AUC)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.FPR != 0 || first.TPR != 0 || last.FPR != 1 || last.TPR != 1 {
		t.Fatalf("curve endpoints wrong: %+v %+v", first, last)
	}
}

func TestTableVShape(t *testing.T) {
	res, err := TableV(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	dm, vt := res.Rows[0], res.Rows[1]
	if dm.System != "DynaMiner" {
		t.Fatal("row order wrong")
	}
	// Core Table V shape: DynaMiner beats the AV ensemble on infection
	// recall by a clear margin, and both do well on benign.
	if dm.InfectionAccuracy() <= vt.InfectionAccuracy() {
		t.Errorf("DynaMiner %v <= AV %v on infections", dm.InfectionAccuracy(), vt.InfectionAccuracy())
	}
	if dm.InfectionAccuracy() < 0.90 {
		t.Errorf("DynaMiner infection accuracy = %v, want >= 0.90", dm.InfectionAccuracy())
	}
	if vt.InfectionAccuracy() < 0.70 || vt.InfectionAccuracy() > 0.95 {
		t.Errorf("AV infection accuracy = %v, want ~0.84", vt.InfectionAccuracy())
	}
	if dm.BenignAccuracy() < 0.90 {
		t.Errorf("DynaMiner benign accuracy = %v", dm.BenignAccuracy())
	}
	if vt.Timeouts == 0 && smallOpts.ValInfections >= 300 {
		t.Log("note: no AV timeouts at this scale (rate is ~1.5%)")
	}
}

func TestCaseStudy1(t *testing.T) {
	res, err := CaseStudy1(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.Transactions < 2000 {
		t.Fatalf("transactions = %d", res.Transactions)
	}
	if res.Downloads != 32 || res.MaliciousDrops != 5 {
		t.Fatalf("downloads = %d/%d, want 32/5", res.Downloads, res.MaliciousDrops)
	}
	if res.Alerts < 4 || res.Alerts > 6 {
		t.Fatalf("alerts = %d, want ~5", res.Alerts)
	}
	if res.VTFlaggedAtCapture != 4 {
		t.Fatalf("AV flagged %d at capture, want 4", res.VTFlaggedAtCapture)
	}
	if res.FreshPayloadLagDays != 11 {
		t.Fatalf("fresh payload lag = %d days, want 11", res.FreshPayloadLagDays)
	}
}

func TestTableVI(t *testing.T) {
	res, err := TableVI(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	totalAlerts := 0
	for _, row := range res.Rows {
		totalAlerts += row.Alerts
	}
	// Table VI shape: 8 alerts total, 4/3/1 across the hosts.
	if totalAlerts < 6 || totalAlerts > 10 {
		t.Fatalf("total alerts = %d, want ~8", totalAlerts)
	}
	if res.Rows[0].Alerts < res.Rows[2].Alerts {
		t.Errorf("windows host alerts %d < macos %d", res.Rows[0].Alerts, res.Rows[2].Alerts)
	}
	if res.VTOnlyPDFs != 2 {
		t.Errorf("trojan PDFs flagged by AV = %d, want 2", res.VTOnlyPDFs)
	}
	if res.TotalDownloads < 40 {
		t.Errorf("downloads = %d", res.TotalDownloads)
	}
}

func TestAblations(t *testing.T) {
	ds := BuildDataset(GroundTruth(smallOpts))

	a1, err := AblationClueThreshold(smallOpts, 100)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", a1)
	if len(a1.Rows) != 6 {
		t.Fatalf("a1 rows = %d", len(a1.Rows))
	}
	// Detection rate decreases (weakly) as the threshold rises.
	for i := 1; i < len(a1.Rows); i++ {
		if a1.Rows[i].DetectionRate > a1.Rows[i-1].DetectionRate+0.05 {
			t.Errorf("detection rate rose with threshold: %v", a1.Rows)
		}
	}
	requireAblation(t, "A1", a1.String())

	a2, err := AblationTrees(ds, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", a2)
	if a2.Rows[0].Trees != 1 || a2.Rows[len(a2.Rows)-1].Trees != 80 {
		t.Fatal("a2 sweep wrong")
	}
	if a2.Rows[3].ROCArea < a2.Rows[0].ROCArea {
		t.Errorf("20 trees AUC %v below single tree %v", a2.Rows[3].ROCArea, a2.Rows[0].ROCArea)
	}
	requireAblation(t, "A2", a2.String())

	a3, err := AblationVoting(ds, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", a3)
	if len(a3.Rows) != 2 || a3.Rows[0].Rule != "prob-averaging" {
		t.Fatal("a3 rows wrong")
	}
	if a3.Rows[0].ROCArea < a3.Rows[1].ROCArea-0.02 {
		t.Errorf("averaging AUC %v well below voting %v", a3.Rows[0].ROCArea, a3.Rows[1].ROCArea)
	}
	requireAblation(t, "A3", a3.String())
}

func TestEvasion(t *testing.T) {
	res, err := Evasion(smallOpts, 40)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	byMode := make(map[string]EvasionRow)
	for _, row := range res.Rows {
		byMode[row.Mode] = row
	}
	base := byMode["none"]
	if base.OfflineTPR < 0.9 || base.WireTPR < 0.5 {
		t.Fatalf("baseline too weak: %+v", base)
	}
	// Section VII shapes:
	// Fileless infection defeats the on-the-wire clue (no download) but the
	// offline classifier still catches many via redirects + call-backs.
	if fl := byMode["fileless"]; fl.WireTPR > 0.05 {
		t.Errorf("fileless wire TPR = %v, want ~0 (no download, no clue)", fl.WireTPR)
	}
	if fl := byMode["fileless"]; fl.OfflineTPR < 0.4 {
		t.Errorf("fileless offline TPR = %v; paper expects averaging to still flag many", fl.OfflineTPR)
	}
	// Compressed payloads evade the clue too (not a likely-malicious type).
	if cp := byMode["compressed-payload"]; cp.WireTPR > 0.05 {
		t.Errorf("compressed wire TPR = %v, want ~0", cp.WireTPR)
	}
	// Removing redirections starves the clue threshold.
	if nr := byMode["no-redirect"]; nr.WireTPR >= base.WireTPR {
		t.Errorf("no-redirect wire TPR %v not below baseline %v", nr.WireTPR, base.WireTPR)
	}
	// Suppressing call-backs hurts but does not disable offline detection.
	if nc := byMode["no-callback"]; nc.OfflineTPR < 0.5 {
		t.Errorf("no-callback offline TPR = %v, too low", nc.OfflineTPR)
	}
}

func TestPerFamily(t *testing.T) {
	res, err := PerFamily(smallOpts, 50)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	total, detected := 0, 0
	for _, row := range res.Rows {
		if row.OfflineTPR < 0 || row.OfflineTPR > 1 {
			t.Fatalf("TPR out of range: %+v", row)
		}
		total += row.Episodes
		detected += row.Detected
	}
	if frac := float64(detected) / float64(total); frac < 0.85 {
		t.Fatalf("overall per-family TPR = %v, want high", frac)
	}
	requireAblation(t, "A5", res.String())
}

func TestDetectionLatency(t *testing.T) {
	res, err := DetectionLatency(smallOpts, 100)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.Detected < res.Episodes*6/10 {
		t.Fatalf("detected %d/%d", res.Detected, res.Episodes)
	}
	if res.MedianTxBefore <= 0 {
		t.Fatal("median tx-before-alert must be positive")
	}
	// The on-the-wire claim: alerts land while conversation remains.
	if res.MedianRemaining <= 0 {
		t.Fatal("alerts should preempt part of the conversation")
	}
	requireAblation(t, "A6", res.String())
}

func TestExtendedFeatures(t *testing.T) {
	res, err := ExtendedFeatures(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.Base.TPR < 0.9 || res.Extended.TPR < 0.9 {
		t.Fatalf("weak classifiers: base %v ext %v", res.Base.TPR, res.Extended.TPR)
	}
	// The extended set must not be materially worse.
	if res.Extended.ROCArea < res.Base.ROCArea-0.02 {
		t.Fatalf("extended AUC %v well below base %v", res.Extended.ROCArea, res.Base.ROCArea)
	}
	// testdata/a7_small.txt is the A7 section of
	// `go run ./cmd/experiments -scale small -seed 3 -only a7`.
	requireGolden(t, "testdata/a7_small.txt", res.String())
}

func TestLearningCurve(t *testing.T) {
	res, err := LearningCurve(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.TrainEpisodes <= first.TrainEpisodes {
		t.Fatal("sizes not increasing")
	}
	// More data must not make the classifier substantially worse.
	if last.ROCArea < first.ROCArea-0.02 {
		t.Fatalf("AUC degraded with data: %v -> %v", first.ROCArea, last.ROCArea)
	}
	if last.TPR < 0.9 {
		t.Fatalf("full-data TPR = %v", last.TPR)
	}
	requireAblation(t, "A8", res.String())
}

func TestCrossFamily(t *testing.T) {
	res, err := CrossFamily(smallOpts, 50)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's unknown-malware claim: conversation dynamics generalize
	// across families — even fully held-out kits are mostly caught.
	if res.MinTPR() < 0.6 {
		t.Fatalf("worst held-out family TPR = %v", res.MinTPR())
	}
	requireAblation(t, "A9", res.String())
}

// TestWriteMarkdownReport holds the small-scale report byte for byte to
// testdata/report_small.md, which is what
//
//	go run ./cmd/experiments -scale small -seed 3 -markdown internal/experiments/testdata/report_small.md
//
// writes. Every paper table and figure is in it, so a change to the
// feature kernels, the forest or the detector that moves any cell fails
// here; such a change is a result, not a refactor, and regenerates the
// file on purpose.
func TestWriteMarkdownReport(t *testing.T) {
	var sb strings.Builder
	if err := WriteMarkdownReport(&sb, smallOpts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# DynaMiner experiment report",
		"## Table I", "## Table III", "## Table V",
		"## Case study 1", "## Evasion resilience",
		"```",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	requireGolden(t, "testdata/report_small.md", out)
}

// TestWriteMarkdownReportPaperScale holds the paper-scale report (the
// zero Options are the paper's dataset sizes) byte for byte to
// testdata/report_paper.md, which is what
//
//	go run ./cmd/experiments -seed 1 -markdown internal/experiments/testdata/report_paper.md
//
// writes. These are the numbers EXPERIMENTS.md quotes; a failure names
// the first line that moved.
func TestWriteMarkdownReportPaperScale(t *testing.T) {
	var sb strings.Builder
	if err := WriteMarkdownReport(&sb, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	requireGolden(t, "testdata/report_paper.md", sb.String())
}

// requireGolden fails with the first differing line when got is not
// byte-identical to the file at path.
func requireGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireLines(t, path, 1, got, string(want))
}

// requireAblation holds got to the body of the "==== <id>: ..." section of
// testdata/ablations_small.txt, which is what
//
//	go run ./cmd/experiments -scale small -seed 3 -only a1,a2,a3,a5,a6,a8,a9 | grep -v '^done in' > internal/experiments/testdata/ablations_small.txt
//
// writes. The tests call the ablations with the episode counts
// cmd/experiments uses, so each section is their String rendering.
func requireAblation(t *testing.T, id, got string) {
	t.Helper()
	const path = "testdata/ablations_small.txt"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	start := 0
	for start < len(lines) && !strings.HasPrefix(lines[start], "==== "+id+": ") {
		start++
	}
	if start == len(lines) {
		t.Fatalf("%s has no %s section", path, id)
	}
	start++
	end := start
	for end < len(lines) && !strings.HasPrefix(lines[end], "==== ") {
		end++
	}
	// The blank line before the next header separates sections.
	want := strings.TrimSuffix(strings.Join(lines[start:end], ""), "\n")
	requireLines(t, path, start+1, got, want)
}

// requireLines fails with the first line where got and want differ,
// numbered as a line of path when want starts at line first.
func requireLines(t *testing.T, path string, first int, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", path, first+i, g, w)
		}
	}
	t.Fatalf("%s differs", path)
}

func TestIPToHostByServerFoldsCase(t *testing.T) {
	// Host headers off the wire are case-insensitive DNS names. The
	// alert-attribution join once compared tx.Host to the download's
	// Server record case-sensitively, so a capture carrying "CDN.Example"
	// silently lost the client->host mapping and the per-host alert rows
	// under-counted. The join must fold case.
	mixed := httpstream.Transaction{
		ClientIP: netip.MustParseAddr("10.1.2.3"),
		Host:     "CDN.Example",
	}
	lower := httpstream.Transaction{
		ClientIP: netip.MustParseAddr("10.4.5.6"),
		Host:     "files.example",
	}
	downloads := []synth.Download{
		{Server: "cdn.example", HostName: "alpha"},
		{Server: "FILES.EXAMPLE", HostName: "bravo"},
	}
	got := ipToHostByServer(downloads, []httpstream.Transaction{mixed, lower})
	if got["10.1.2.3"] != "alpha" {
		t.Fatalf("mixed-case Host not attributed: %v", got)
	}
	if got["10.4.5.6"] != "bravo" {
		t.Fatalf("mixed-case Server record not attributed: %v", got)
	}
}
