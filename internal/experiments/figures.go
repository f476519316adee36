package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dynaminer/internal/features"
	"dynaminer/internal/ml"
	"dynaminer/internal/synth"
	"dynaminer/internal/wcg"
)

// ------------------------------------------------------------ Figures 1-2

// DistRow is one slice of a categorical distribution.
type DistRow struct {
	Category string
	Count    int
	Pct      float64
}

// Figure1Result is the overall enticement-strategy distribution over
// infection episodes.
type Figure1Result struct {
	Rows []DistRow
}

// Figure1 computes the overall enticement distribution (infections only).
func Figure1(eps []synth.Episode) Figure1Result {
	counts := make(map[string]int)
	total := 0
	for i := range eps {
		if !eps[i].Infection {
			continue
		}
		counts[eps[i].Enticement]++
		total++
	}
	var res Figure1Result
	for _, cat := range []string{"google", "bing", "empty", "compromised", "redacted", "social"} {
		res.Rows = append(res.Rows, DistRow{
			Category: cat,
			Count:    counts[cat],
			Pct:      pct(counts[cat], total),
		})
	}
	return res
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// String renders the distribution like the Figure 1 legend
// (category, count, percentage).
func (r Figure1Result) String() string {
	var sb strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s %5d  %5.1f%%\n", row.Category, row.Count, row.Pct)
	}
	return sb.String()
}

// Figure2Result is the per-family enticement-origin distribution.
type Figure2Result struct {
	Families   []string
	Categories []string
	// Pct[f][c] is the percentage of family f's episodes enticed via
	// category c.
	Pct [][]float64
}

// Figure2 computes the per-family enticement distribution.
func Figure2(eps []synth.Episode) Figure2Result {
	res := Figure2Result{
		Categories: []string{"google", "bing", "empty", "compromised", "redacted", "social"},
	}
	for _, f := range synth.Families {
		res.Families = append(res.Families, f.Name)
	}
	counts := make(map[string]map[string]int)
	totals := make(map[string]int)
	for i := range eps {
		if !eps[i].Infection {
			continue
		}
		if counts[eps[i].Family] == nil {
			counts[eps[i].Family] = make(map[string]int)
		}
		counts[eps[i].Family][eps[i].Enticement]++
		totals[eps[i].Family]++
	}
	for _, fam := range res.Families {
		row := make([]float64, len(res.Categories))
		for ci, cat := range res.Categories {
			row[ci] = pct(counts[fam][cat], totals[fam])
		}
		res.Pct = append(res.Pct, row)
	}
	return res
}

// String renders the per-family matrix.
func (r Figure2Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s", "Family")
	for _, c := range r.Categories {
		fmt.Fprintf(&sb, " %11s", c)
	}
	sb.WriteByte('\n')
	for fi, fam := range r.Families {
		fmt.Fprintf(&sb, "%-12s", fam)
		for ci := range r.Categories {
			fmt.Fprintf(&sb, " %10.1f%%", r.Pct[fi][ci])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ------------------------------------------------------------ Figures 3-4

// PropRow compares one average measure between classes.
type PropRow struct {
	Property  string
	Infection float64
	Benign    float64
}

// PropResult is a class-comparison of average measures (Figures 3 and 4).
type PropResult struct {
	Title string
	Rows  []PropRow
}

// String renders the comparison.
func (r PropResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-26s %12s %12s\n", r.Title, "Infection", "Benign")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-26s %12.4f %12.4f\n", row.Property, row.Infection, row.Benign)
	}
	return sb.String()
}

// classAverager accumulates per-class means of named measures.
type classAverager struct {
	names []string
	inf   []float64
	ben   []float64
	nInf  int
	nBen  int
}

func newClassAverager(names []string) *classAverager {
	return &classAverager{
		names: names,
		inf:   make([]float64, len(names)),
		ben:   make([]float64, len(names)),
	}
}

func (a *classAverager) add(infection bool, vals []float64) {
	if infection {
		a.nInf++
		for i, v := range vals {
			a.inf[i] += v
		}
	} else {
		a.nBen++
		for i, v := range vals {
			a.ben[i] += v
		}
	}
}

func (a *classAverager) result(title string) PropResult {
	res := PropResult{Title: title}
	for i, name := range a.names {
		row := PropRow{Property: name}
		if a.nInf > 0 {
			row.Infection = a.inf[i] / float64(a.nInf)
		}
		if a.nBen > 0 {
			row.Benign = a.ben[i] / float64(a.nBen)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// figure3Slots are the feature-vector slots (0-based) behind Figure 3's
// rows, in row order: f7, f8, f12, f9, f11, f10, f16–f23 and f25.
var figure3Slots = []int{6, 7, 11, 8, 10, 9, 15, 16, 17, 18, 19, 20, 21, 22, 24}

// Figure3 computes the average graph-property measures per class
// (nodes, edges, diameter, degree, volume, centralities, connectedness),
// reading the values the detector serves off each episode's WCG.
func Figure3(eps []synth.Episode) PropResult {
	avg := newClassAverager([]string{
		"nodes", "edges", "diameter", "max-degree", "volume", "density",
		"degree-centrality", "closeness-centrality", "betweenness-centrality",
		"load-centrality", "node-connectivity", "clustering-coeff",
		"neighbor-degree", "degree-connectivity", "pagerank",
	})
	vals := make([]float64, len(figure3Slots))
	for i := range eps {
		v := features.Extract(wcg.FromTransactions(eps[i].Txs))
		for j, slot := range figure3Slots {
			vals[j] = v[slot]
		}
		avg.add(eps[i].Infection, vals)
	}
	return avg.result("Figure 3: avg graph properties")
}

// Figure4 computes the average HTTP header element counts per class.
func Figure4(eps []synth.Episode) PropResult {
	avg := newClassAverager([]string{
		"GETs", "POSTs", "HTTP-20X", "HTTP-30X", "HTTP-40X",
		"redirections", "referrer-set", "referrer-empty",
	})
	for i := range eps {
		s := wcg.FromTransactions(eps[i].Txs).Summarize()
		avg.add(eps[i].Infection, []float64{
			float64(s.GETs), float64(s.POSTs), float64(s.HTTP20X),
			float64(s.HTTP30X), float64(s.HTTP40X),
			float64(s.Redirects.TotalRedirects),
			float64(s.RefererSet), float64(s.RefererEmpty),
		})
	}
	return avg.result("Figure 4: avg HTTP header elements")
}

// --------------------------------------------------------------- Figure 6

// Figure6Result is the example WCG rendering.
type Figure6Result struct {
	DOT   string
	Order int
	Size  int
}

// Figure6 builds an example Angler WCG (as in the paper's Figure 6) and
// renders it as Graphviz DOT.
func Figure6(o Options) Figure6Result {
	o = o.withDefaults()
	rng := newRNG(o, 6)
	ep := synth.GenerateInfection("Angler", corpusEpoch, rng)
	w := wcg.FromTransactions(ep.Txs)
	return Figure6Result{
		DOT:   w.DOT("Angler exploit kit WCG (synthetic)"),
		Order: w.Order(),
		Size:  w.Size(),
	}
}

// String returns the DOT source.
func (r Figure6Result) String() string {
	return fmt.Sprintf("order=%d size=%d\n%s", r.Order, r.Size, r.DOT)
}

// ------------------------------------------------------------ Figures 7-9

// SeriesResult carries the per-class distribution of one graph measure as
// decile series (p0, p10, ..., p100), the data behind Figures 7-9.
type SeriesResult struct {
	Metric    string
	Infection [11]float64
	Benign    [11]float64
	InfMean   float64
	BenMean   float64
}

// Figures7to9 computes the distributions of average node connectivity
// (Fig. 7, f20), average betweenness centrality (Fig. 8, f18), and average
// closeness centrality (Fig. 9, f17), as served off each episode's WCG.
func Figures7to9(eps []synth.Episode) []SeriesResult {
	metrics := []string{"avg-node-connectivity", "avg-betweenness-centrality", "avg-closeness-centrality"}
	slots := [3]int{19, 17, 16}
	var inf, ben [3][]float64
	for i := range eps {
		v := features.Extract(wcg.FromTransactions(eps[i].Txs))
		for m, slot := range slots {
			if eps[i].Infection {
				inf[m] = append(inf[m], v[slot])
			} else {
				ben[m] = append(ben[m], v[slot])
			}
		}
	}
	out := make([]SeriesResult, 3)
	for m := 0; m < 3; m++ {
		out[m] = SeriesResult{
			Metric:    metrics[m],
			Infection: deciles(inf[m]),
			Benign:    deciles(ben[m]),
			InfMean:   mean(inf[m]),
			BenMean:   mean(ben[m]),
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func deciles(xs []float64) [11]float64 {
	var out [11]float64
	if len(xs) == 0 {
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i := 0; i <= 10; i++ {
		idx := i * (len(sorted) - 1) / 10
		out[i] = sorted[idx]
	}
	return out
}

// String renders one decile series.
func (r SeriesResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (mean: infection %.4f, benign %.4f)\n", r.Metric, r.InfMean, r.BenMean)
	fmt.Fprintf(&sb, "  %-10s", "pct")
	for i := 0; i <= 10; i++ {
		fmt.Fprintf(&sb, " %8d", i*10)
	}
	fmt.Fprintf(&sb, "\n  %-10s", "infection")
	for _, v := range r.Infection {
		fmt.Fprintf(&sb, " %8.4f", v)
	}
	fmt.Fprintf(&sb, "\n  %-10s", "benign")
	for _, v := range r.Benign {
		fmt.Fprintf(&sb, " %8.4f", v)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// -------------------------------------------------------------- Figure 10

// Figure10Result is the ROC curve of the ERF on all features.
type Figure10Result struct {
	Points []ml.ROCPoint
	AUC    float64
}

// Figure10 computes the cross-validated ROC curve of the full-feature ERF.
func Figure10(ds *ml.Dataset, o Options) (Figure10Result, error) {
	o = o.withDefaults()
	folds := ml.StratifiedKFold(ds.Y, o.Folds, newRNG(o, 10))
	var scores []float64
	var labels []int
	for fi, test := range folds {
		train := ds.Subset(ml.TrainIndices(ds.Len(), test))
		forest, err := ml.TrainForest(train, ml.ForestConfig{NumTrees: o.Trees, Seed: o.Seed + int64(fi)})
		if err != nil {
			return Figure10Result{}, err
		}
		testX := make([][]float64, len(test))
		for j, i := range test {
			testX[j] = ds.X[i]
			labels = append(labels, ds.Y[i])
		}
		scores = append(scores, forest.ScoreBatch(nil, testX)...)
	}
	curve := ml.ROC(scores, labels)
	return Figure10Result{Points: curve, AUC: ml.AUC(curve)}, nil
}

// String renders a downsampled curve.
func (r Figure10Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ROC curve (AUC = %.3f)\n%8s %8s\n", r.AUC, "FPR", "TPR")
	step := 1
	if len(r.Points) > 25 {
		step = len(r.Points) / 25
	}
	for i := 0; i < len(r.Points); i += step {
		fmt.Fprintf(&sb, "%8.4f %8.4f\n", r.Points[i].FPR, r.Points[i].TPR)
	}
	last := r.Points[len(r.Points)-1]
	fmt.Fprintf(&sb, "%8.4f %8.4f\n", last.FPR, last.TPR)
	return sb.String()
}
