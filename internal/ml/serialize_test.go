package ml

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestForestSaveLoadRoundTrip pins the artifact cycle of a trained
// forest: the DMFB it saves loads back through LoadModel as the same
// forest, scoring bit-identically and re-encoding byte for byte.
func TestForestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ds := gaussDataset(200, 6, 3, 1.5, rng)
	f, err := TrainForest(ds, ForestConfig{NumTrees: 7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.SaveFlatBlob(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	g, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTrees() != f.NumTrees() || g.Config() != f.Config() {
		t.Fatalf("loaded %d trees %+v, want %d trees %+v", g.NumTrees(), g.Config(), f.NumTrees(), f.Config())
	}
	if !bytes.Equal(g.AppendFlatBlob(nil), saved) {
		t.Fatal("loaded forest does not re-encode to the saved blob")
	}
	for i := 0; i < 100; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.NormFloat64() * 2
		}
		if math.Float64bits(f.Score(x)) != math.Float64bits(g.Score(x)) {
			t.Fatalf("scores differ on probe %d", i)
		}
	}
}

func TestLoadForestErrors(t *testing.T) {
	if err := loadBoth(t, "not json"); err == nil {
		t.Fatal("garbage must error")
	}
	if err := loadBoth(t, `{"version":99,"trees":[{"nodes":[]}]}`); err == nil {
		t.Fatal("bad version must error")
	}
	if err := loadBoth(t, `{"version":1,"trees":[]}`); err == nil {
		t.Fatal("empty forest must error")
	}
	// Truncated node stream.
	if err := loadBoth(t, `{"version":1,"trees":[{"nodes":[{"f":0,"t":1}]}]}`); err == nil {
		t.Fatal("truncated tree must error")
	}
	// Trailing nodes.
	trailing := `{"version":1,"trees":[{"nodes":[{"leaf":true,"p0":1},{"leaf":true,"p1":1}]}]}`
	if err := loadBoth(t, trailing); err == nil {
		t.Fatal("trailing nodes must error")
	}
}

// loadBoth runs the JSON importer and the recursive oracle loader over the
// same document and asserts they agree on rejection; it returns the
// importer's error.
func loadBoth(t *testing.T, doc string) error {
	t.Helper()
	_, perr := refLoadForest(strings.NewReader(doc))
	_, ferr := LoadFlatForest(strings.NewReader(doc))
	if (perr == nil) != (ferr == nil) {
		t.Fatalf("loaders disagree on %q: recursive %v, importer %v", doc, perr, ferr)
	}
	return ferr
}

// TestLoadForestSemanticValidation pins the load-time screens added after
// semantically broken models were found to load fine and fail at serve
// time: a feature index past the trained dimensionality panicked inside
// PredictProba, and out-of-range leaf probabilities silently mis-scored.
// Every case here loaded without error before the fix.
func TestLoadForestSemanticValidation(t *testing.T) {
	cases := map[string]string{
		"feature out of range": `{"version":1,"features":2,"trees":[{"nodes":[` +
			`{"f":5,"t":1},{"leaf":true,"p1":1},{"leaf":true,"p0":1}]}]}`,
		"negative feature": `{"version":1,"features":2,"trees":[{"nodes":[` +
			`{"f":-1,"t":1},{"leaf":true,"p1":1},{"leaf":true,"p0":1}]}]}`,
		"leaf prob above 1": `{"version":1,"features":1,"trees":[{"nodes":[` +
			`{"leaf":true,"p0":0.5,"p1":1.5}]}]}`,
		"negative leaf prob": `{"version":1,"features":1,"trees":[{"nodes":[` +
			`{"leaf":true,"p0":-0.25,"p1":0.25}]}]}`,
		"negative feature count": `{"version":1,"features":-3,"trees":[{"nodes":[` +
			`{"leaf":true,"p1":1}]}]}`,
	}
	for name, doc := range cases {
		if err := loadBoth(t, doc); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	// Control: a well-formed single-leaf model still loads.
	if err := loadBoth(t, `{"version":1,"features":1,"trees":[{"nodes":[{"leaf":true,"p1":1}]}]}`); err != nil {
		t.Fatalf("well-formed model rejected: %v", err)
	}
}

// TestLoadForestNonFiniteThreshold exercises validateNode directly: JSON
// cannot carry NaN/Inf literals, but the screen guards any future binary
// format and documents the invariant.
func TestLoadForestNonFiniteThreshold(t *testing.T) {
	if err := validateNode(nodeWire{Feature: 0, Threshold: math.NaN()}, 1, 0); err == nil {
		t.Fatal("NaN threshold passed validation")
	}
	if err := validateNode(nodeWire{Feature: 0, Threshold: math.Inf(1)}, 1, 0); err == nil {
		t.Fatal("+Inf threshold passed validation")
	}
	if err := validateNode(nodeWire{Leaf: true, P1: math.NaN()}, 1, 0); err == nil {
		t.Fatal("NaN leaf probability passed validation")
	}
}

// TestLoadForestDepthBound feeds both loaders an adversarially deep
// left-linear chain. Before the bound, the recursive loader would recurse
// once per node — a large enough stream could exhaust the goroutine
// stack; now anything past maxModelDepth is rejected with a clear error.
func TestLoadForestDepthBound(t *testing.T) {
	deepChain := func(depth int) string {
		var sb strings.Builder
		sb.WriteString(`{"version":1,"features":1,"trees":[{"nodes":[`)
		for i := 0; i < depth; i++ {
			sb.WriteString(`{"f":0,"t":0.5},`)
		}
		sb.WriteString(`{"leaf":true,"p1":1}`) // deepest left leaf
		for i := 0; i < depth; i++ {
			sb.WriteString(`,{"leaf":true,"p0":1}`) // right leaves on the way up
		}
		sb.WriteString(`]}]}`)
		return sb.String()
	}
	if err := loadBoth(t, deepChain(maxModelDepth+10)); err == nil {
		t.Fatal("over-deep model loaded without error")
	}
	if !strings.Contains(loadBoth(t, deepChain(maxModelDepth+10)).Error(), "depth") {
		t.Fatal("depth violation error does not mention depth")
	}
	if err := loadBoth(t, deepChain(64)); err != nil {
		t.Fatalf("reasonable depth rejected: %v", err)
	}
}

func TestSaveLoadPreservesFeatureCount(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ds := gaussDataset(60, 9, 3, 2.0, rng)
	f, err := TrainForest(ds, ForestConfig{NumTrees: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumFeatures() != 9 {
		t.Fatalf("trained NumFeatures = %d", f.NumFeatures())
	}
	var blob, doc bytes.Buffer
	if err := f.SaveFlatBlob(&blob); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(&doc, f); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*bytes.Buffer{"blob": &blob, "json": &doc} {
		g, err := LoadModel(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumFeatures() != 9 {
			t.Fatalf("%s: loaded NumFeatures = %d", name, g.NumFeatures())
		}
	}
}

// TestLoadModelImportsJSONFixture pins JSON import against checked-in
// artifacts. testdata/seed7.json is the v1 JSON that `dynaminer train
// -synthetic -seed 7 -trees 3` saved while training still wrote JSON, and
// testdata/seed7.dmfb is what `dynaminer model convert` turned it into.
// The JSON must load to the forest whose blob is that fixture, byte for
// byte, with the CRC the fixture stores; the blob loads to the same forest.
// The pair pins import and conversion, not training: training today reads
// different feature vectors (f16, f18, f19 and f25 are served as closed
// forms), and cmd/dynaminer pins what it writes as seed7_trained.dmfb.
func TestLoadModelImportsJSONFixture(t *testing.T) {
	blob, err := os.ReadFile("testdata/seed7.dmfb")
	if err != nil {
		t.Fatal(err)
	}
	wantCRC := binary.LittleEndian.Uint32(blob[8:])
	for _, name := range []string{"testdata/seed7.json", "testdata/seed7.dmfb"} {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := LoadModel(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(ff.AppendFlatBlob(nil), blob) {
			t.Fatalf("%s does not re-encode to the blob fixture", name)
		}
		if got := ff.BlobCRC(); got != wantCRC {
			t.Fatalf("%s: BlobCRC %08x, fixture stores %08x", name, got, wantCRC)
		}
	}
}
