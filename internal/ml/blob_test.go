package ml

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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
// is score-bit-identical, the loaded forest re-encodes to a byte-identical
// blob, and the config survives.
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
	if reblob := loaded.AppendFlatBlob(nil); !bytes.Equal(reblob, blob) {
		t.Fatal("blob round trip is not byte-identical")
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
	parsed, err := decodeFlatBlob(blob)
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
// corruptions of a valid blob, each of which the recursive oracle must
// reject too. Semantic corruptions re-fix the checksum so the failure
// exercises the validator, not CRC.
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
	// moveTreeBoundary shifts where tree 1 starts, so tree 0's node range
	// gains or loses the node at the boundary.
	moveTreeBoundary := func(b []byte, by int32) []byte {
		at := int(offs[0][0]) + 4
		binary.LittleEndian.PutUint32(b[at:], uint32(int32(binary.LittleEndian.Uint32(b[at:]))+by))
		return refixBlobCRC(b)
	}
	// legacyIndex declares no feature count and points the first split at
	// feature index f.
	legacyIndex := func(b []byte, f uint32) []byte {
		binary.LittleEndian.PutUint32(b[16:], 0)
		binary.LittleEndian.PutUint32(b[featAt(internal):], f)
		return refixBlobCRC(b)
	}

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
		"+Inf threshold": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[thrAt(internal):], math.Float64bits(math.Inf(1)))
			return refixBlobCRC(b)
		},
		"leaf probability above 1": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[p1At(leaf):], math.Float64bits(1.5))
			return refixBlobCRC(b)
		},
		"NaN leaf probability": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[p1At(leaf):], math.Float64bits(math.NaN()))
			return refixBlobCRC(b)
		},
		"negative leaf probability": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[p1At(leaf):], math.Float64bits(-0.25))
			return refixBlobCRC(b)
		},
		"feature index at the cap with no feature count": func(b []byte) []byte {
			return legacyIndex(b, maxLegacyFeature)
		},
		"tree range with a trailing node": func(b []byte) []byte { return moveTreeBoundary(b, 1) },
		"truncated tree range":            func(b []byte) []byte { return moveTreeBoundary(b, -1) },
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
		if err := loadBoth(t, corrupt(append([]byte(nil), blob...))); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	// Controls: the untouched blob still loads, and so does one with no
	// feature count whose indices stay under the cap.
	if err := loadBoth(t, blob); err != nil {
		t.Fatalf("valid blob rejected: %v", err)
	}
	if err := loadBoth(t, legacyIndex(append([]byte(nil), blob...), maxLegacyFeature-1)); err != nil {
		t.Fatalf("blob with no feature count rejected: %v", err)
	}
}

// loadBoth runs LoadFlatBlob and the recursive oracle loader over the
// same bytes and asserts they agree on rejection; it returns the loader's
// error.
func loadBoth(t *testing.T, data []byte) error {
	t.Helper()
	_, ferr := LoadFlatBlob(bytes.NewReader(data))
	_, perr := refLoadBlob(data)
	if (perr == nil) != (ferr == nil) {
		t.Fatalf("loaders disagree: recursive %v, LoadFlatBlob %v", perr, ferr)
	}
	return ferr
}

// TestLoadFlatBlobNamesMagic pins that the magic is checked before the
// length: whatever its size, input that is not DMFB — a small v1 JSON
// model above all — fails with an error naming the magic, not as a
// truncated blob.
func TestLoadFlatBlobNamesMagic(t *testing.T) {
	inputs := map[string]string{
		"empty":          "",
		"short prefix":   "DMF",
		"small v1 JSON":  `{"version":1,"features":1,"trees":[{"nodes":[{"leaf":true,"p1":1}]}]}`,
		"large document": strings.Repeat("x", 4*flatBlobHeaderSize),
	}
	for name, in := range inputs {
		err := loadBoth(t, []byte(in))
		if err == nil || !strings.Contains(err.Error(), `"DMFB" magic`) {
			t.Errorf("%s: error %v does not name the DMFB magic", name, err)
		}
	}
}

// combChainForest hand-builds a left-linear chain of the given depth in
// slab form: past maxModelDepth no loader accepts it, so no accepted model
// could be saved as it.
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

// TestLoadFlatBlobDepthBound feeds both loaders an adversarially deep
// left-linear chain no trained forest could produce. Without the bound the
// recursive oracle would recurse once per node, and a large enough stream
// could exhaust the goroutine stack; anything past maxModelDepth is
// rejected with an error that names depth.
func TestLoadFlatBlobDepthBound(t *testing.T) {
	err := loadBoth(t, combChainForest(maxModelDepth+10).AppendFlatBlob(nil))
	if err == nil {
		t.Fatal("over-deep blob loaded without error")
	} else if !strings.Contains(err.Error(), "depth") {
		t.Fatalf("depth violation error does not mention depth: %v", err)
	}
	if err := loadBoth(t, combChainForest(64).AppendFlatBlob(nil)); err != nil {
		t.Fatalf("reasonable depth rejected: %v", err)
	}
}

// FuzzLoadFlatBlob throws arbitrary bytes at the blob loader and at the
// recursive oracle loader. Invariants: neither panics; both accept or both
// reject; an accepted blob re-encodes byte-identically; and the loaded
// slabs score bit-identically to the pointer trees the oracle built from
// them. The loader allocates at most 64 KiB + 8 B per input byte: no
// length field sizes an allocation. The constant also covers what the
// fuzz worker itself allocates during the call.
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
		ptr, perr := refLoadBlob(data)
		if (perr == nil) != (err == nil) {
			t.Fatalf("loaders disagree: recursive %v, LoadFlatBlob %v", perr, err)
		}
		if err != nil {
			return
		}
		if reblob := loaded.AppendFlatBlob(nil); !bytes.Equal(reblob, data) {
			t.Fatal("accepted blob does not re-encode byte-identically")
		}
		x := probeFor(loaded)
		fs, ps := loaded.Score(x), ptr.Score(x)
		if math.Float64bits(fs) != math.Float64bits(ps) {
			t.Fatalf("loaded slabs score %v, pointer trees %v", fs, ps)
		}
		if math.IsNaN(fs) || fs < 0 || fs > 1 {
			t.Fatalf("validated model scored %v, outside [0, 1]", fs)
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

// TestForestSaveLoadRoundTrip pins the artifact cycle of a trained
// forest: the DMFB it saves loads back as the same forest, scoring
// bit-identically and re-encoding byte for byte.
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
	g, err := LoadFlatBlob(&buf)
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

// TestLoadForestErrors: garbage, a bad version, no trees, a cut file and
// a node stream that is cut short or runs on are each rejected by both
// loaders. The hand-built forests encode with a valid checksum, so only
// the tree walk can reject them.
func TestLoadForestErrors(t *testing.T) {
	_, blob := blobFixture(t)
	if err := loadBoth(t, []byte("not a model")); err == nil {
		t.Fatal("garbage must error")
	}
	badVersion := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(badVersion[4:], 99)
	if err := loadBoth(t, badVersion); err == nil {
		t.Fatal("bad version must error")
	}
	noTrees := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(noTrees[20:], 0)
	if err := loadBoth(t, refixBlobCRC(noTrees)); err == nil {
		t.Fatal("empty forest must error")
	}
	if err := loadBoth(t, blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated file must error")
	}
	// One split with no children.
	truncated := &FlatForest{
		feature: []int32{0}, threshold: []float64{0.5}, right: []int32{0},
		p0: []float64{0}, p1: []float64{0}, treeStart: []int32{0, 1}, nf: 1,
	}
	if err := loadBoth(t, truncated.AppendFlatBlob(nil)); err == nil {
		t.Fatal("truncated tree must error")
	}
	// Two leaves in one tree.
	trailing := &FlatForest{
		feature: []int32{-1, -1}, threshold: []float64{0, 0}, right: []int32{0, 0},
		p0: []float64{1, 0}, p1: []float64{0, 1}, treeStart: []int32{0, 2}, nf: 1,
	}
	if err := loadBoth(t, trailing.AppendFlatBlob(nil)); err == nil {
		t.Fatal("trailing nodes must error")
	}
}

// TestSaveLoadPreservesFeatureCount: the trained dimensionality survives
// a save through the file opener every loader shares.
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
	path := filepath.Join(t.TempDir(), "model.dmfb")
	if err := os.WriteFile(path, f.AppendFlatBlob(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumFeatures() != 9 {
		t.Fatalf("loaded NumFeatures = %d", g.NumFeatures())
	}
}

// TestSeedBlobFixtures pins the checked-in blobs. testdata/seed7.dmfb was
// written before the served feature vectors changed (f16, f18, f19 and
// f25 became closed forms), and testdata/seed7_trained.dmfb is what
// `dynaminer train -synthetic -seed 7 -trees 3` writes today (pinned by
// cmd/dynaminer). Each must load, re-encode byte for byte with the CRC it
// stores, and score like the pointer trees the oracle builds from it.
func TestSeedBlobFixtures(t *testing.T) {
	for _, name := range []string{"testdata/seed7.dmfb", "testdata/seed7_trained.dmfb"} {
		blob, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := LoadModelFile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(ff.AppendFlatBlob(nil), blob) {
			t.Fatalf("%s does not re-encode byte for byte", name)
		}
		if got, want := ff.BlobCRC(), binary.LittleEndian.Uint32(blob[8:]); got != want {
			t.Fatalf("%s: BlobCRC %08x, file stores %08x", name, got, want)
		}
		ptr, err := refLoadBlob(blob)
		if err != nil {
			t.Fatalf("%s: recursive loader: %v", name, err)
		}
		for i, x := range probeVectors(50, ff.NumFeatures(), rand.New(rand.NewSource(7))) {
			if fs, ps := ff.Score(x), ptr.Score(x); math.Float64bits(fs) != math.Float64bits(ps) {
				t.Fatalf("%s probe %d: slabs score %v, pointer trees %v", name, i, fs, ps)
			}
		}
	}
}
