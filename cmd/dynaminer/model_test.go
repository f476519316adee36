package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dynaminer"
)

// One model in its two historical forms, checked in beside the ml
// package's import test (TestLoadModelImportsJSONFixture): the v1 JSON
// `train -synthetic -seed 7 -trees 3` saved while training still wrote
// JSON, and the blob `model convert` made of it. trainedBlob is what that
// command writes today, from today's feature vectors.
const (
	fixtureJSON = "../../internal/ml/testdata/seed7.json"
	fixtureBlob = "../../internal/ml/testdata/seed7.dmfb"
	trainedBlob = "../../internal/ml/testdata/seed7_trained.dmfb"
)

// trainTinyModel trains a small synthetic model and saves it as a blob.
func trainTinyModel(t *testing.T) (*dynaminer.Classifier, string) {
	t.Helper()
	eps := dynaminer.Corpus(dynaminer.CorpusConfig{Seed: 9, Infections: 10, Benign: 10})
	clf, err := dynaminer.Train(eps, dynaminer.TrainConfig{NumTrees: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.dmfb")
	if err := clf.SaveBlobFile(path); err != nil {
		t.Fatal(err)
	}
	return clf, path
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestModelConvertRoundTrip converts the v1 JSON fixture and must write the
// blob fixture byte for byte; converting that blob again changes nothing,
// and the converted model scores and drives the monitor like the original.
func TestModelConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	blobPath := filepath.Join(dir, "model.dmfb")
	againPath := filepath.Join(dir, "again.dmfb")

	if err := run([]string{"model", "convert", "-in", fixtureJSON, "-out", blobPath}); err != nil {
		t.Fatalf("convert json: %v", err)
	}
	if !bytes.Equal(readFile(t, blobPath), readFile(t, fixtureBlob)) {
		t.Fatal("converted JSON fixture differs from the blob fixture")
	}
	if err := run([]string{"model", "convert", "-in", blobPath, "-out", againPath}); err != nil {
		t.Fatalf("convert blob: %v", err)
	}
	if !bytes.Equal(readFile(t, againPath), readFile(t, fixtureBlob)) {
		t.Fatal("blob -> blob is not byte-identical")
	}

	fromJSON, err := dynaminer.LoadFile(fixtureJSON)
	if err != nil {
		t.Fatal(err)
	}
	fromBlob, err := dynaminer.LoadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	eps := dynaminer.Corpus(dynaminer.CorpusConfig{Seed: 77, Infections: 2, Benign: 2})
	for i := range eps {
		w := dynaminer.BuildWCG(eps[i].Txs)
		if fromJSON.Score(w) != fromBlob.Score(w) {
			t.Fatalf("episode %d: converted model scores differently", i)
		}
	}
	m := dynaminer.NewMonitor(dynaminer.MonitorConfig{RedirectThreshold: 1}, fromBlob)
	for i := range eps {
		m.ProcessAll(eps[i].Txs)
	}
}

// TestTrainWritesFixtureBlob: `train` writes the DMFB blob, and at the
// fixture's seed and tree count it writes testdata/seed7_trained.dmfb
// byte for byte. Any change to the training corpus, the feature vectors
// or the forest moves it; such a change rewrites the file with that
// command, on purpose.
func TestTrainWritesFixtureBlob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.dmfb")
	if err := run([]string{"train", "-synthetic", "-seed", "7", "-trees", "3", "-model", path}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, path), readFile(t, trainedBlob)) {
		t.Fatal("train -synthetic -seed 7 -trees 3 does not write testdata/seed7_trained.dmfb")
	}
}

func TestModelInfo(t *testing.T) {
	_, blobPath := trainTinyModel(t)
	for _, path := range []string{blobPath, fixtureJSON} {
		if err := run([]string{"model", "info", path}); err != nil {
			t.Fatalf("info %s: %v", path, err)
		}
	}
}

func TestModelErrors(t *testing.T) {
	if err := run([]string{"model"}); err == nil {
		t.Fatal("bare model must error")
	}
	if err := run([]string{"model", "bogus"}); err == nil {
		t.Fatal("unknown model subcommand must error")
	}
	if err := run([]string{"model", "convert", "-in", "nope.dmfb"}); err == nil {
		t.Fatal("convert without -out must error")
	}
	if err := run([]string{"model", "convert", "-in", fixtureJSON, "-out", filepath.Join(t.TempDir(), "m.json"), "-format", "json"}); err == nil {
		t.Fatal("convert must not accept a -format flag: the blob is the only output")
	}
	if err := run([]string{"model", "info", "does-not-exist.dmfb"}); err == nil {
		t.Fatal("info on missing file must error")
	}
}
