package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynaminer"
)

// testScale runs every workload at a twentieth of its size.
const testScale = 20

// TestWorkloads builds every workload's corpus twice from one seed and
// replays each build once: the builds must agree exactly, every client
// must get the oracle's verdict, and a capture must read back into the
// transactions it was rendered from.
func TestWorkloads(t *testing.T) {
	model, _, err := trainModel(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			type shape struct {
				clients, txs, packets, captureLen, alerts int
				digest                                    uint64
			}
			var builds [2]shape
			for b := range builds {
				c, err := newCorpus(s, 7, testScale)
				if err != nil {
					t.Fatal(err)
				}
				c.oracle(model)
				if s.wire {
					txs, err := dynaminer.ReadPCAP(bytes.NewReader(c.capture))
					if err != nil {
						t.Fatal(err)
					}
					if len(txs) != c.numTxs {
						t.Fatalf("capture reads back %d transactions, rendered from %d", len(txs), c.numTxs)
					}
				}
				p := newRunner(&env{corpus: c, model: model}).pass(true)
				if p.failed != 0 {
					t.Errorf("build %d: %d of %d clients differ from the oracle", b, p.failed, len(c.clients))
				}
				if p.stats.Transactions != c.numTxs {
					t.Errorf("build %d: engine saw %d transactions, corpus has %d", b, p.stats.Transactions, c.numTxs)
				}
				builds[b] = shape{len(c.clients), c.numTxs, c.packets, len(c.capture), p.stats.Alerts, p.digest}
			}
			if builds[0] != builds[1] {
				t.Errorf("two builds from one seed differ: %+v vs %+v", builds[0], builds[1])
			}
			if builds[0].clients == 0 || builds[0].txs == 0 {
				t.Errorf("empty corpus: %+v", builds[0])
			}
		})
	}
}

// TestContractNames holds the harness and BENCHMARK.json in step: the
// workloads and metrics a run reports are the ones the contract lists,
// with the same units, directions and bounds.
func TestContractNames(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var contract struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(contract.Workloads), len(specs))
	}
	for i, w := range contract.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	defs := func(es []entry) []metricDef {
		out := make([]metricDef, len(es))
		for i, e := range es {
			out[i] = metricDef(e)
		}
		return out
	}
	if got := defs(contract.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %v\n harness        %v", got, endToEnd)
	}
	if got := defs(contract.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %v\n harness        %v", got, perLayer)
	}

	// A traced run reports exactly those metrics and leaves its trace.
	dir := t.TempDir()
	s, _ := specByName("wire_small")
	res, err := runWorkload(s, 7, testScale, 0, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 {
		t.Errorf("run not correct: %d of %d operations failed", res.failed, res.attempted)
	}
	for _, side := range []struct {
		defs   []metricDef
		values map[string]float64
	}{{endToEnd, res.endToEnd}, {perLayer, res.perLayer}} {
		if len(side.values) != len(side.defs) {
			t.Errorf("run reports %d metrics, the harness defines %d", len(side.values), len(side.defs))
		}
		for _, d := range side.defs {
			if _, ok := side.values[d.Name]; !ok {
				t.Errorf("run does not report %s", d.Name)
			}
		}
	}
	for _, d := range endToEnd {
		if res.endToEnd[d.Name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, must be above zero", d.Name, res.endToEnd[d.Name])
		}
	}
	if ratio := res.perLayer["dynaminer.layer_sum_ratio"]; ratio < 0.5 || ratio > 1.5 {
		t.Errorf("layer sum is %.2f of the untraced pass: the traced composition has drifted from ProcessPCAP", ratio)
	}
	trace, err := os.ReadFile(filepath.Join(dir, "trace-wire_small.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &events); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(events.TraceEvents) < 5*tracedPasses {
		t.Errorf("trace holds %d spans, want at least the %d stage spans", len(events.TraceEvents), 5*tracedPasses)
	}
}
