package ml

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// LoadModel reads a trained model from r, sniffing the format from the
// leading bytes: the DMFB magic selects the blob loader, anything else is
// imported as v1 JSON. Both routes run the full semantic screens — feature
// bounds, finite thresholds, preorder shape, depth cap, canonical payloads
// — so a forest this returns is fully validated whatever its source. It is
// the one place a model's format is told apart.
func LoadModel(r io.Reader) (*FlatForest, error) {
	br := bufio.NewReader(r)
	if prefix, err := br.Peek(len(flatBlobMagic)); err == nil && IsFlatBlob(prefix) {
		return LoadFlatBlob(br)
	}
	return LoadFlatForest(br)
}

// LoadModelFile reads a trained model from path through LoadModel. It is
// the loader the detector's hot-reload path uses: a candidate model is
// fully screened before it can ever be swapped into a running engine.
func LoadModelFile(path string) (*FlatForest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ml: load model: %w", err)
	}
	defer f.Close()
	return LoadModel(f)
}
