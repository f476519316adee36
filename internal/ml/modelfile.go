package ml

import (
	"fmt"
	"os"
)

// LoadModelFile reads a DMFB model from path through LoadFlatBlob. It is
// the file opener every loader shares, the detector's hot-reload path
// among them: a candidate model is fully screened before it can ever be
// swapped into a running engine.
func LoadModelFile(path string) (*FlatForest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ml: load model: %w", err)
	}
	defer f.Close()
	return LoadFlatBlob(f)
}
