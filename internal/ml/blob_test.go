package ml

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// blobFixture trains a forest and returns it with its blob encoding.
func blobFixture(tb testing.TB) (*FlatForest, []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(91))
	ds := gaussDataset(200, 6, 3, 1.5, rng)
	ff, err := TrainForest(ds, ForestConfig{NumTrees: 7, Seed: 13})
	if err != nil {
		tb.Fatal(err)
	}
	return ff, ff.AppendFlatBlob(nil)
}

func refixBlobCRC(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[8:], crc32.ChecksumIEEE(b[16:]))
	return b
}

// TestFlatBlobRoundTrip pins the artifact cycle: trained → blob → loaded
// is score-bit-identical, the loaded forest re-encodes to byte-identical
// JSON and blob, and the config survives.
func TestFlatBlobRoundTrip(t *testing.T) {
	ff, blob := blobFixture(t)

	loaded, err := LoadFlatBlob(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTrees() != ff.NumTrees() || loaded.NumNodes() != ff.NumNodes() || loaded.NumFeatures() != ff.NumFeatures() {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			loaded.NumTrees(), loaded.NumNodes(), loaded.NumFeatures(),
			ff.NumTrees(), ff.NumNodes(), ff.NumFeatures())
	}
	if loaded.Config() != ff.Config() {
		t.Fatalf("config mismatch: %+v vs %+v", loaded.Config(), ff.Config())
	}
	for i, x := range probeVectors(200, ff.NumFeatures(), rand.New(rand.NewSource(5))) {
		want := ff.Score(x)
		if got := loaded.Score(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("probe %d: loaded scores %v, original %v", i, got, want)
		}
		s1, v1, n1 := ff.ScoreWithVotes(x)
		s2, v2, n2 := loaded.ScoreWithVotes(x)
		if math.Float64bits(s1) != math.Float64bits(s2) || v1 != v2 || n1 != n2 {
			t.Fatalf("probe %d: vote tally diverged", i)
		}
	}

	var jsonA, jsonB bytes.Buffer
	if err := writeJSON(&jsonA, ff); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(&jsonB, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonA.Bytes(), jsonB.Bytes()) {
		t.Fatal("blob round trip changed the JSON serialization")
	}
	if reblob := loaded.AppendFlatBlob(nil); !bytes.Equal(reblob, blob) {
		t.Fatal("blob round trip is not byte-identical")
	}
	if !IsFlatBlob(blob) || IsFlatBlob(jsonA.Bytes()) {
		t.Fatal("IsFlatBlob misclassifies an artifact")
	}
}

// TestFlatBlobMappedAliasesBuffer proves blob decoding is zero-copy on
// little-endian hosts: the parsed forest's slabs point into the buffer it
// was parsed from, and LoadFlatBlob parses its own private copy of r, so
// mutating the caller's bytes afterwards cannot reach the forest.
func TestFlatBlobMappedAliasesBuffer(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("aliasing requires a little-endian host")
	}
	ff, blob := blobFixture(t)
	parsed, err := parseFlatBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	offs, _ := blobLayout(int64(ff.NumTrees()), int64(ff.NumNodes()))
	if unsafe.Pointer(&parsed.treeStart[0]) != unsafe.Pointer(&blob[offs[0][0]]) {
		t.Fatal("treeStart slab does not alias the buffer")
	}
	if unsafe.Pointer(&parsed.threshold[0]) != unsafe.Pointer(&blob[offs[3][0]]) {
		t.Fatal("threshold slab does not alias the buffer")
	}
	reader, err := LoadFlatBlob(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	probe := probeVectors(1, ff.NumFeatures(), rand.New(rand.NewSource(3)))[0]
	before := reader.Score(probe)
	blob[int(offs[3][0])] ^= 0xFF
	after := reader.Score(probe)
	if math.Float64bits(before) != math.Float64bits(after) {
		t.Fatal("LoadFlatBlob forest aliases the caller's mutable buffer")
	}
}

// TestLoadFlatBlobRejections drives every load-time screen with targeted
// corruptions of a valid blob. Semantic corruptions re-fix the checksum so
// the failure exercises the validator, not CRC.
func TestLoadFlatBlobRejections(t *testing.T) {
	ff, blob := blobFixture(t)
	offs, _ := blobLayout(int64(ff.NumTrees()), int64(ff.NumNodes()))
	internal, leaf := -1, -1
	for i, f := range ff.feature {
		if f >= 0 && internal < 0 {
			internal = i
		}
		if f < 0 && leaf < 0 {
			leaf = i
		}
	}
	if internal < 0 || leaf < 0 {
		t.Fatal("fixture forest lacks an internal node or a leaf")
	}
	featAt := func(i int) int { return int(offs[1][0]) + 4*i }
	rightAt := func(i int) int { return int(offs[2][0]) + 4*i }
	thrAt := func(i int) int { return int(offs[3][0]) + 8*i }
	p1At := func(i int) int { return int(offs[5][0]) + 8*i }

	cases := map[string]func(b []byte) []byte{
		"truncated header":  func(b []byte) []byte { return b[:flatBlobHeaderSize-1] },
		"truncated body":    func(b []byte) []byte { return b[:len(b)-5] },
		"trailing garbage":  func(b []byte) []byte { return append(b, 0xAB) },
		"bad magic":         func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":       func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 2); return b },
		"bad checksum":      func(b []byte) []byte { b[8] ^= 0xFF; return b },
		"nonzero reserved":  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 1); return b },
		"flipped body byte": func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"negative features": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:], ^uint32(0))
			return refixBlobCRC(b)
		},
		"zero trees": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:], 0)
			return refixBlobCRC(b)
		},
		"absurd node count": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], 1<<40)
			return refixBlobCRC(b)
		},
		"shifted section offset": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[72:], binary.LittleEndian.Uint64(b[72:])+8)
			return refixBlobCRC(b)
		},
		"feature out of range": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[featAt(internal):], uint32(int32(ff.nf+5)))
			return refixBlobCRC(b)
		},
		"NaN threshold": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[thrAt(internal):], math.Float64bits(math.NaN()))
			return refixBlobCRC(b)
		},
		"leaf probability above 1": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[p1At(leaf):], math.Float64bits(1.5))
			return refixBlobCRC(b)
		},
		"dangling right index": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[rightAt(internal):], binary.LittleEndian.Uint32(b[rightAt(internal):])+1)
			return refixBlobCRC(b)
		},
		"non-canonical leaf payload": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[thrAt(leaf):], math.Float64bits(0.25))
			return refixBlobCRC(b)
		},
		"non-canonical leaf marker": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[featAt(leaf):], ^uint32(1)) // -2
			return refixBlobCRC(b)
		},
		"internal node with probabilities": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[int(offs[4][0])+8*internal:], math.Float64bits(0.5))
			return refixBlobCRC(b)
		},
	}
	for name, corrupt := range cases {
		mutated := corrupt(append([]byte(nil), blob...))
		if _, err := LoadFlatBlob(bytes.NewReader(mutated)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	// Control: the untouched blob still loads.
	if _, err := LoadFlatBlob(bytes.NewReader(blob)); err != nil {
		t.Fatalf("valid blob rejected: %v", err)
	}
}

// combChainForest hand-builds a left-linear chain of the given depth in
// slab form — the shape the JSON depth test uses, but constructed directly
// because no loader accepts it, so no accepted model could be saved as it.
func combChainForest(depth int) *FlatForest {
	n := 2*depth + 1
	ff := &FlatForest{
		feature:   make([]int32, n),
		threshold: make([]float64, n),
		right:     make([]int32, n),
		p0:        make([]float64, n),
		p1:        make([]float64, n),
		treeStart: []int32{0, int32(n)},
		cfg:       ForestConfig{NumTrees: 1},
		nf:        1,
	}
	for i := 0; i < depth; i++ {
		ff.feature[i] = 0
		ff.threshold[i] = 0.5
		ff.right[i] = int32(2*depth - i)
	}
	for i := depth; i < n; i++ {
		ff.feature[i] = -1
		if i == depth {
			ff.p1[i] = 1
		} else {
			ff.p0[i] = 1
		}
	}
	return ff
}

// TestLoadFlatBlobDepthBound pins that the blob loader enforces the same
// depth cap as the JSON importer, against an adversarial blob no trained
// forest could produce.
func TestLoadFlatBlobDepthBound(t *testing.T) {
	deep := combChainForest(maxModelDepth + 10).AppendFlatBlob(nil)
	if _, err := LoadFlatBlob(bytes.NewReader(deep)); err == nil {
		t.Fatal("over-deep blob loaded without error")
	} else if !strings.Contains(err.Error(), "depth") {
		t.Fatalf("depth violation error does not mention depth: %v", err)
	}
	ok := combChainForest(64).AppendFlatBlob(nil)
	if _, err := LoadFlatBlob(bytes.NewReader(ok)); err != nil {
		t.Fatalf("reasonable depth rejected: %v", err)
	}
}

// FuzzLoadFlatBlob throws arbitrary bytes at the blob loader. Invariants:
// no panic; any accepted blob re-encodes byte-identically; written out as
// v1 JSON it imports back to the same blob, and the recursive oracle
// loader accepts it too; and the blob-loaded, imported and pointer forms
// score bit-identically. The loader allocates at most 64 KiB + 8 B per input
// byte: no length field sizes an allocation. The constant also covers
// what the fuzz worker itself allocates during the call.
func FuzzLoadFlatBlob(f *testing.F) {
	ff, blob := blobFixture(f)
	offs, _ := blobLayout(int64(ff.NumTrees()), int64(ff.NumNodes()))
	f.Add(append([]byte(nil), blob...))
	f.Add(combChainForest(8).AppendFlatBlob(nil))
	f.Add(blob[:flatBlobHeaderSize])
	f.Add([]byte(flatBlobMagic))
	// Semantically corrupt seeds with valid checksums, so mutation starts
	// past the CRC screen.
	badFeat := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(badFeat[offs[1][0]:], 99)
	f.Add(refixBlobCRC(badFeat))
	badThr := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(badThr[offs[3][0]:], math.Float64bits(math.Inf(1)))
	f.Add(refixBlobCRC(badThr))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loaded, err := LoadFlatBlob(r)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+8*len(data)); got > limit {
			t.Fatalf("loading %d bytes allocated %d, want at most %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if reblob := loaded.AppendFlatBlob(nil); !bytes.Equal(reblob, data) {
			t.Fatal("accepted blob does not re-encode byte-identically")
		}
		var asJSON bytes.Buffer
		if err := writeJSON(&asJSON, loaded); err != nil {
			t.Fatalf("accepted blob does not write as JSON: %v", err)
		}
		imported, err := LoadFlatForest(bytes.NewReader(asJSON.Bytes()))
		if err != nil {
			t.Fatalf("JSON importer rejects a blob-validated model: %v", err)
		}
		if !bytes.Equal(imported.AppendFlatBlob(nil), data) {
			t.Fatal("blob -> JSON -> blob is not byte-identical")
		}
		ptr, err := refLoadForest(bytes.NewReader(asJSON.Bytes()))
		if err != nil {
			t.Fatalf("recursive loader rejects a blob-validated model: %v", err)
		}
		x := probeFor(loaded)
		rs, is, ps := loaded.Score(x), imported.Score(x), ptr.Score(x)
		if math.Float64bits(rs) != math.Float64bits(is) || math.Float64bits(rs) != math.Float64bits(ps) {
			t.Fatalf("representations score differently: %v / %v / %v", rs, is, ps)
		}
		if math.IsNaN(rs) || rs < 0 || rs > 1 {
			t.Fatalf("validated model scored %v, outside [0, 1]", rs)
		}
	})
}

// probeFor builds a deterministic probe vector for ff: its declared
// dimensionality, or (legacy models with no feature count) one past the
// widest feature index any node references.
func probeFor(ff *FlatForest) []float64 {
	dim := ff.NumFeatures()
	if dim == 0 {
		for _, fi := range ff.feature {
			if int(fi)+1 > dim {
				dim = int(fi) + 1
			}
		}
		if dim == 0 {
			dim = 1
		}
	}
	x := make([]float64, dim)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	return x
}
