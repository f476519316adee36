package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynaminer"
)

// The checked-in DMFB fixtures beside the ml package's fixture test
// (TestSeedBlobFixtures). fixtureBlob was written before the served
// feature vectors changed; trainedBlob is what `train -synthetic -seed 7
// -trees 3` writes today, from today's feature vectors.
const (
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

// TestSeedBlobDrivesMonitor: a blob written before the served feature
// vectors changed still loads, scores like the same bytes read through
// dynaminer.Load, and drives the monitor.
func TestSeedBlobDrivesMonitor(t *testing.T) {
	fromFile, err := dynaminer.LoadFile(fixtureBlob)
	if err != nil {
		t.Fatal(err)
	}
	fromReader, err := dynaminer.Load(bytes.NewReader(readFile(t, fixtureBlob)))
	if err != nil {
		t.Fatal(err)
	}
	eps := dynaminer.Corpus(dynaminer.CorpusConfig{Seed: 77, Infections: 2, Benign: 2})
	for i := range eps {
		w := dynaminer.BuildWCG(eps[i].Txs)
		if fromFile.Score(w) != fromReader.Score(w) {
			t.Fatalf("episode %d: the two loads score differently", i)
		}
	}
	m := dynaminer.NewMonitor(dynaminer.MonitorConfig{RedirectThreshold: 1}, fromFile)
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
	for _, path := range []string{blobPath, fixtureBlob, trainedBlob} {
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
	if err := run([]string{"model", "convert", "-in", fixtureBlob, "-out", filepath.Join(t.TempDir(), "m.dmfb")}); err == nil ||
		!strings.Contains(err.Error(), "unknown model subcommand") {
		t.Fatalf("convert must be an unknown subcommand, got %v", err)
	}
	if err := run([]string{"model", "info", "does-not-exist.dmfb"}); err == nil {
		t.Fatal("info on missing file must error")
	}
	// A v1 JSON model, the format written before DMFB, is not a model.
	doc := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(doc, []byte(`{"version":1,"features":1,"trees":[{"nodes":[{"leaf":true,"p1":1}]}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"model", "info", doc}); err == nil || !strings.Contains(err.Error(), `"DMFB" magic`) {
		t.Fatalf("info on a v1 JSON model must fail naming the DMFB magic, got %v", err)
	}
}
