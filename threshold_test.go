package dynaminer

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"dynaminer/internal/features"
)

// constantClassifier loads a DMFB model of one tree that is one leaf, so
// it scores every vector p exactly.
func constantClassifier(t *testing.T, p float64) *Classifier {
	t.Helper()
	le := binary.LittleEndian
	blob := make([]byte, 216)
	copy(blob, "DMFB")
	le.PutUint32(blob[4:], 1)                     // format version
	le.PutUint32(blob[16:], features.NumFeatures) // features
	le.PutUint32(blob[20:], 1)                    // trees
	le.PutUint64(blob[24:], 1)                    // nodes
	le.PutUint64(blob[32:], 1)                    // ForestConfig.NumTrees
	// Section table: treeStart int32[2], then feature, right, threshold,
	// p0 and p1 of the one node, each 8-byte aligned.
	for i, sec := range [6][2]uint64{{168, 2}, {176, 1}, {184, 1}, {192, 1}, {200, 1}, {208, 1}} {
		le.PutUint64(blob[72+16*i:], sec[0])
		le.PutUint64(blob[80+16*i:], sec[1])
	}
	le.PutUint32(blob[172:], 1)              // treeStart = [0, 1]
	le.PutUint32(blob[176:], math.MaxUint32) // feature -1: a leaf
	le.PutUint64(blob[200:], math.Float64bits(1-p))
	le.PutUint64(blob[208:], math.Float64bits(p))
	le.PutUint32(blob[8:], crc32.ChecksumIEEE(blob[16:]))
	c, err := Load(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOneDecisionThreshold: offline classification and the on-the-wire
// engine decide at the same threshold. A model scoring exactly 0.5 is
// benign to both Classifier.IsInfection and Monitor.Process; one scoring
// the next float above 0.5 is an infection to both.
func TestOneDecisionThreshold(t *testing.T) {
	var ep Episode
	for _, e := range Corpus(CorpusConfig{Seed: 3, Infections: 4, Benign: 1}) {
		if e.Infection {
			ep = e
			break
		}
	}
	for _, c := range []struct {
		p    float64
		want bool
	}{{0.5, false}, {math.Nextafter(0.5, 1), true}} {
		clf := constantClassifier(t, c.p)
		if got := clf.Score(EpisodeWCG(&ep)); got != c.p {
			t.Fatalf("constant model scores %v, want %v", got, c.p)
		}
		if got := clf.IsInfection(EpisodeWCG(&ep)); got != c.want {
			t.Errorf("score %v: IsInfection = %v, want %v", c.p, got, c.want)
		}
		m := NewMonitor(MonitorConfig{}, clf)
		alerted := len(m.ProcessAll(ep.Txs)) > 0
		if st := m.Stats(); st.Classifications == 0 {
			t.Fatalf("the %s episode was never classified on the wire: %+v", ep.Family, st)
		}
		if alerted != c.want {
			t.Errorf("score %v: Monitor.Process alerted = %v, want %v", c.p, alerted, c.want)
		}
		m.Close()
	}
}
