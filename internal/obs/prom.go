package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// writeFamily renders one registered metric as a Prometheus text-format
// family: HELP, TYPE, then its sample lines.
func writeFamily(w io.Writer, e *entry) error {
	bw := bufio.NewWriter(w)
	if e.help != "" {
		fmt.Fprintf(bw, "# HELP %s %s\n", e.name, escapeHelp(e.help))
	}
	fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, e.kind)
	switch e.kind {
	case kindCounter:
		fmt.Fprintf(bw, "%s %d\n", e.name, e.counter.Value())
	case kindGauge:
		fmt.Fprintf(bw, "%s %d\n", e.name, e.gauge.Value())
	case kindFloatGauge:
		fmt.Fprintf(bw, "%s %s\n", e.name, formatFloat(e.fgauge.Value()))
	case kindGaugeVec:
		keys, children := e.vec.sortedChildren()
		for _, k := range keys {
			fmt.Fprintf(bw, "%s{%s=%q} %d\n", e.name, e.vec.label, escapeLabel(k), children[k].Value())
		}
	case kindHistogram:
		bounds, cum, sum := e.hist.Snapshot()
		for i, b := range bounds {
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", e.name, formatFloat(b), cum[i])
		}
		count := cum[len(bounds)]
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", e.name, count)
		fmt.Fprintf(bw, "%s_sum %s\n", e.name, formatFloat(sum))
		fmt.Fprintf(bw, "%s_count %d\n", e.name, count)
	}
	return bw.Flush()
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (the %q quoting handles quotes and
// backslashes; fold newlines explicitly).
func escapeLabel(s string) string { return strings.ReplaceAll(s, "\n", " ") }

// BucketSnapshot is one histogram bucket in a registry snapshot.
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"` // cumulative, Prometheus le semantics
}

// MetricSnapshot is one metric's point-in-time value, JSON-shaped for the
// admin /snapshot endpoint and the CLI.
type MetricSnapshot struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Help string `json:"help,omitempty"`
	// Value carries counters and gauges.
	Value int64 `json:"value,omitempty"`
	// FloatValue carries float-valued gauges.
	FloatValue float64 `json:"float_value,omitempty"`
	// Children carries gauge-vec children keyed by label value.
	Children map[string]int64 `json:"children,omitempty"`
	// Count/Sum/Buckets carry histograms.
	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot returns every registered metric's current value in
// registration order.
func (r *Registry) Snapshot() []MetricSnapshot {
	entries := r.entries()
	out := make([]MetricSnapshot, 0, len(entries))
	for _, e := range entries {
		ms := MetricSnapshot{Name: e.name, Type: e.kind.String(), Help: e.help}
		switch e.kind {
		case kindCounter:
			ms.Value = e.counter.Value()
		case kindGauge:
			ms.Value = e.gauge.Value()
		case kindFloatGauge:
			ms.FloatValue = e.fgauge.Value()
		case kindGaugeVec:
			keys, children := e.vec.sortedChildren()
			ms.Children = make(map[string]int64, len(keys))
			for _, k := range keys {
				ms.Children[k] = children[k].Value()
			}
		case kindHistogram:
			bounds, cum, sum := e.hist.Snapshot()
			ms.Count, ms.Sum = cum[len(bounds)], sum
			for i, b := range bounds {
				ms.Buckets = append(ms.Buckets, BucketSnapshot{UpperBound: b, Count: cum[i]})
			}
		}
		out = append(out, ms)
	}
	return out
}

// ExpositionFamily is one parsed metric family from a /metrics payload.
type ExpositionFamily struct {
	Name    string
	Type    string
	Help    string
	Samples map[string]float64 // sample name + raw label block -> value
}

// ParseExposition validates a Prometheus text-format payload — the check
// the CI admin-endpoint smoke and the exposition tests share. It verifies
// that every sample belongs to a TYPE-declared family, that values parse,
// that histogram families carry consistent _bucket/_sum/_count series
// with non-decreasing cumulative buckets ending at _count, and returns
// the families by name.
func ParseExposition(r io.Reader) (map[string]*ExpositionFamily, error) {
	families := map[string]*ExpositionFamily{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "# HELP ") {
			rest := strings.TrimPrefix(text, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if err := ValidateMetricName(name); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			fam := families[name]
			if fam == nil {
				fam = &ExpositionFamily{Name: name, Samples: map[string]float64{}}
				families[name] = fam
			}
			fam.Help = help
			continue
		}
		if strings.HasPrefix(text, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(text, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", line, text)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", line, fields[1])
			}
			fam := families[fields[0]]
			if fam == nil {
				fam = &ExpositionFamily{Name: fields[0], Samples: map[string]float64{}}
				families[fields[0]] = fam
			}
			if fam.Type != "" && fam.Type != fields[1] {
				return nil, fmt.Errorf("line %d: family %q re-typed %s -> %s", line, fields[0], fam.Type, fields[1])
			}
			fam.Type = fields[1]
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue // free-form comment
		}
		sample, value, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		base := sampleFamily(sample, families)
		if base == nil {
			return nil, fmt.Errorf("line %d: sample %q has no TYPE declaration", line, sample)
		}
		if base.Type == "" {
			return nil, fmt.Errorf("line %d: sample %q has no TYPE declaration", line, sample)
		}
		if _, dup := base.Samples[sample]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %q", line, sample)
		}
		base.Samples[sample] = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range families {
		if fam.Type == "histogram" {
			if err := checkHistogramFamily(fam); err != nil {
				return nil, err
			}
		}
	}
	return families, nil
}

// parseSample splits "name{labels} value" into its sample key and value.
func parseSample(text string) (string, float64, error) {
	// The value is the last whitespace-separated field; the sample key is
	// everything before it (label values never contain raw whitespace in
	// our writer).
	idx := strings.LastIndexAny(text, " \t")
	if idx < 0 {
		return "", 0, fmt.Errorf("malformed sample line %q", text)
	}
	key := strings.TrimSpace(text[:idx])
	v, err := strconv.ParseFloat(text[idx+1:], 64)
	if err != nil {
		return "", 0, fmt.Errorf("sample %q has a non-numeric value: %v", key, err)
	}
	if key == "" {
		return "", 0, fmt.Errorf("malformed sample line %q", text)
	}
	return key, v, nil
}

// sampleFamily resolves a sample key to its declared family, accounting
// for histogram suffixes and label blocks.
func sampleFamily(sample string, families map[string]*ExpositionFamily) *ExpositionFamily {
	name := sample
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	if fam, ok := families[name]; ok {
		return fam
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if fam, ok := families[base]; ok && fam.Type == "histogram" {
				return fam
			}
		}
	}
	return nil
}

// checkHistogramFamily verifies bucket monotonicity and the
// bucket/count/sum contract of one histogram family.
func checkHistogramFamily(fam *ExpositionFamily) error {
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	var haveInf bool
	var infCount float64
	count, haveCount := 0.0, false
	_, haveSum := fam.Samples[fam.Name+"_sum"]
	for sample, v := range fam.Samples {
		if !strings.HasPrefix(sample, fam.Name+"_bucket{") {
			continue
		}
		le := sample[strings.IndexByte(sample, '{'):]
		le = strings.TrimPrefix(le, `{le="`)
		le = strings.TrimSuffix(le, `"}`)
		if le == "+Inf" {
			haveInf = true
			infCount = v
			continue
		}
		f, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("histogram %q: bad le %q", fam.Name, le)
		}
		buckets = append(buckets, bucket{f, v})
	}
	if v, ok := fam.Samples[fam.Name+"_count"]; ok {
		count, haveCount = v, true
	}
	if !haveInf || !haveCount || !haveSum {
		return fmt.Errorf("histogram %q: missing _bucket{le=\"+Inf\"}, _sum or _count", fam.Name)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	prev := 0.0
	for _, b := range buckets {
		if b.count < prev {
			return fmt.Errorf("histogram %q: cumulative bucket counts decrease at le=%g", fam.Name, b.le)
		}
		prev = b.count
	}
	if infCount != count || prev > count {
		return fmt.Errorf("histogram %q: +Inf bucket %g disagrees with _count %g", fam.Name, infCount, count)
	}
	return nil
}
