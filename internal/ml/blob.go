package ml

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Flat model blob (DMFB): the versioned little-endian binary artifact of a
// FlatForest and the one on-disk model form written. The blob *is* the
// in-memory representation: six raw slab sections behind a fixed header,
// so loading is O(header) parsing plus one checksum sweep, with the slabs
// aliasing the loader's read buffer instead of being decoded.
//
// Layout (all integers little-endian; sections 8-byte aligned, packed in
// order, no gaps — the section table is validated against this canonical
// layout, so v1 blobs are byte-reproducible from their contents):
//
//	off   0  magic "DMFB"
//	off   4  format version  uint32 (= 1)
//	off   8  crc32 (IEEE)    uint32 over bytes [16:len)
//	off  12  reserved        uint32 (= 0)
//	off  16  features        int32
//	off  20  tree count      int32
//	off  24  node count      int64
//	off  32  ForestConfig    5 × int64 (NumTrees, MaxFeatures,
//	         MinSamplesLeaf, MaxDepth, Seed)
//	off  72  section table   6 × {offset uint64, count uint64}
//	off 168  sections: treeStart int32[nTrees+1], feature int32[nNodes],
//	         right int32[nNodes], threshold float64[nNodes],
//	         p0 float64[nNodes], p1 float64[nNodes]
//
// Every accepted blob passes semantic screens (feature bounds, finite
// thresholds, leaf probabilities in [0, 1], preorder tree shape, depth
// cap) plus canonical-payload checks (leaves carry -1/0/0, internals carry
// zero probabilities, right indices match the preorder structure), so the
// one accepted encoding of a forest re-encodes byte-identically.
const (
	flatBlobMagic      = "DMFB"
	flatBlobVersion    = 1
	flatBlobHeaderSize = 168
	flatBlobSections   = 6
)

// maxLegacyFeature bounds node feature indices in blobs that declare no
// feature count (features == 0): real models have a few dozen features,
// and an absurd index would otherwise make every consumer that sizes a
// vector off the model allocate gigabytes.
const maxLegacyFeature = 1 << 16

// maxModelDepth bounds the tree depth the loader accepts. Trained CART
// trees peel at worst one sample per level, so real depth stays well under
// the training-set size; an adversarial node stream, by contrast, could
// nest millions of internal nodes and blow the goroutine stack of any
// recursive walk.
const maxModelDepth = 4096

// flatBlobMaxNodes bounds node counts so slab indices (int32) cannot
// overflow; the canonical-size check against len(data) rejects absurd
// counts long before any allocation.
const flatBlobMaxNodes = math.MaxInt32 - 1

// hostLittleEndian reports whether the running machine stores integers
// little-endian — the blob's on-disk order. On such hosts slab encoding
// is a single memmove and decoding aliases the buffer; big-endian hosts
// take the per-element fallback and stay correct.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// blobLayout computes the canonical section offsets for a blob with the
// given tree and node counts, returning the six {offset, count} pairs in
// section-table order and the total blob size.
func blobLayout(nTrees, nNodes int64) (offs [flatBlobSections][2]uint64, total int64) {
	align8 := func(x int64) int64 { return (x + 7) &^ 7 }
	counts := [flatBlobSections]int64{nTrees + 1, nNodes, nNodes, nNodes, nNodes, nNodes}
	sizes := [flatBlobSections]int64{4, 4, 4, 8, 8, 8}
	off := int64(flatBlobHeaderSize)
	for i := 0; i < flatBlobSections; i++ {
		offs[i][0] = uint64(off)
		offs[i][1] = uint64(counts[i])
		off = align8(off + counts[i]*sizes[i])
	}
	return offs, off
}

// appendI32LE appends the int32 slab in little-endian order, padding to 8
// bytes; on little-endian hosts the body is one copy.
func appendI32LE(dst []byte, s []int32) []byte {
	if hostLittleEndian && len(s) > 0 {
		dst = append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))...)
	} else {
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	}
	for len(dst)%8 != 0 {
		dst = append(dst, 0)
	}
	return dst
}

// appendF64LE appends the float64 slab bit-exactly in little-endian order.
func appendF64LE(dst []byte, s []float64) []byte {
	if hostLittleEndian && len(s) > 0 {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))...)
	}
	for _, v := range s {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendFlatBlob appends the forest's blob encoding to dst and returns it.
func (ff *FlatForest) AppendFlatBlob(dst []byte) []byte {
	nTrees := int64(ff.NumTrees())
	nNodes := int64(ff.NumNodes())
	offs, total := blobLayout(nTrees, nNodes)

	start := len(dst)
	if cap(dst)-start < int(total) {
		grown := make([]byte, start, start+int(total))
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, flatBlobMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, flatBlobVersion)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // crc32, patched below
	dst = binary.LittleEndian.AppendUint32(dst, 0) // reserved
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(ff.nf)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(nTrees)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(nNodes))
	for _, v := range [5]int64{
		int64(ff.cfg.NumTrees), int64(ff.cfg.MaxFeatures),
		int64(ff.cfg.MinSamplesLeaf), int64(ff.cfg.MaxDepth), ff.cfg.Seed,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, s := range offs {
		dst = binary.LittleEndian.AppendUint64(dst, s[0])
		dst = binary.LittleEndian.AppendUint64(dst, s[1])
	}
	dst = appendI32LE(dst, ff.treeStart)
	dst = appendI32LE(dst, ff.feature)
	dst = appendI32LE(dst, ff.right)
	dst = appendF64LE(dst, ff.threshold)
	dst = appendF64LE(dst, ff.p0)
	dst = appendF64LE(dst, ff.p1)
	if int64(len(dst)-start) != total {
		panic("ml: flat blob encoder produced a non-canonical layout")
	}
	binary.LittleEndian.PutUint32(dst[start+8:], blobCRC(dst[start:]))
	return dst
}

// blobCRC is the checksum a blob stores at offset 8: the CRC-32 (IEEE) of
// everything past the 16-byte preamble.
func blobCRC(blob []byte) uint32 { return crc32.ChecksumIEEE(blob[16:]) }

// BlobCRC returns the CRC-32 (IEEE) of the forest's canonical flat-blob
// encoding — the same checksum a DMFB artifact stores at offset 8. Because
// the v1 layout is byte-reproducible from the forest's contents, the value
// is a stable identity for the trained model: equal for the blob and the
// in-memory form, different for any forest that scores differently. It is
// taken once, where the forest is made (training, or the load that
// verified it), so reading it encodes nothing.
func (ff *FlatForest) BlobCRC() uint32 { return ff.crc }

// SaveFlatBlob writes the forest's binary blob artifact to w.
func (ff *FlatForest) SaveFlatBlob(w io.Writer) error {
	if _, err := w.Write(ff.AppendFlatBlob(nil)); err != nil {
		return fmt.Errorf("ml: save flat blob: %w", err)
	}
	return nil
}

// i32Section returns a section of data as an []int32, aliasing the buffer
// when the host representation permits and copying otherwise.
func i32Section(data []byte, off, count uint64) []int32 {
	raw := data[off : off+4*count]
	if count == 0 {
		return []int32{}
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// f64Section returns a section of data as a []float64, aliasing when
// possible (see i32Section) and copying bit-exactly otherwise.
func f64Section(data []byte, off, count uint64) []float64 {
	raw := data[off : off+8*count]
	if count == 0 {
		return []float64{}
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), count)
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// LoadFlatBlob reads a blob from r and returns the decoded forest: the one
// model reader, so a forest it returns is fully screened whatever fed it.
// The slabs alias the private read buffer, so the load is zero-parse:
// O(header) decoding plus the checksum sweep and one pass over the nodes.
func LoadFlatBlob(r io.Reader) (*FlatForest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ml: load flat blob: %w", err)
	}
	ff, err := decodeFlatBlob(data)
	if err != nil {
		return nil, err
	}
	if err := ff.validateSlabs(); err != nil {
		return nil, err
	}
	return ff, nil
}

// decodeFlatBlob validates the magic, header, checksum and canonical
// layout, then materializes the forest over data (aliasing it when the
// host representation allows) without screening its node streams:
// LoadFlatBlob runs validateSlabs next. data must stay unmodified for the
// forest's lifetime.
func decodeFlatBlob(data []byte) (*FlatForest, error) {
	if len(data) < len(flatBlobMagic) || string(data[:len(flatBlobMagic)]) != flatBlobMagic {
		return nil, fmt.Errorf("ml: not a DMFB model: file starts %q, want the %q magic", data[:min(len(data), len(flatBlobMagic))], flatBlobMagic)
	}
	if len(data) < flatBlobHeaderSize {
		return nil, fmt.Errorf("ml: flat blob truncated: %d bytes, header is %d", len(data), flatBlobHeaderSize)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != flatBlobVersion {
		return nil, fmt.Errorf("ml: unsupported flat blob version %d", v)
	}
	wantCRC := binary.LittleEndian.Uint32(data[8:])
	if got := blobCRC(data); got != wantCRC {
		return nil, fmt.Errorf("ml: flat blob checksum mismatch: file says %#x, contents hash to %#x", wantCRC, got)
	}
	if rsv := binary.LittleEndian.Uint32(data[12:]); rsv != 0 {
		return nil, fmt.Errorf("ml: flat blob reserved field is %#x, want 0", rsv)
	}
	features := int32(binary.LittleEndian.Uint32(data[16:]))
	nTrees := int64(int32(binary.LittleEndian.Uint32(data[20:])))
	nNodes := int64(binary.LittleEndian.Uint64(data[24:]))
	if features < 0 {
		return nil, fmt.Errorf("ml: negative feature count %d", features)
	}
	if nTrees <= 0 {
		return nil, fmt.Errorf("ml: forest file has no trees")
	}
	if nNodes < nTrees || nNodes > flatBlobMaxNodes {
		return nil, fmt.Errorf("ml: implausible node count %d for %d trees", nNodes, nTrees)
	}
	var cfgRaw [5]int64
	for i := range cfgRaw {
		cfgRaw[i] = int64(binary.LittleEndian.Uint64(data[32+8*i:]))
	}
	wantOffs, total := blobLayout(nTrees, nNodes)
	if int64(len(data)) != total {
		return nil, fmt.Errorf("ml: flat blob is %d bytes, canonical layout needs %d", len(data), total)
	}
	sizes := [flatBlobSections]uint64{4, 4, 4, 8, 8, 8}
	for i := 0; i < flatBlobSections; i++ {
		off := binary.LittleEndian.Uint64(data[72+16*i:])
		cnt := binary.LittleEndian.Uint64(data[72+16*i+8:])
		if off != wantOffs[i][0] || cnt != wantOffs[i][1] {
			return nil, fmt.Errorf("ml: section %d at {%d,%d}, canonical layout is {%d,%d}", i, off, cnt, wantOffs[i][0], wantOffs[i][1])
		}
		// Alignment padding after the int32 sections must be zero, so an
		// accepted blob always re-encodes byte-identically.
		padEnd := int64(total)
		if i+1 < flatBlobSections {
			padEnd = int64(wantOffs[i+1][0])
		}
		for p := int64(off + cnt*sizes[i]); p < padEnd; p++ {
			if data[p] != 0 {
				return nil, fmt.Errorf("ml: non-zero padding byte at offset %d", p)
			}
		}
	}
	return &FlatForest{
		treeStart: i32Section(data, wantOffs[0][0], wantOffs[0][1]),
		feature:   i32Section(data, wantOffs[1][0], wantOffs[1][1]),
		right:     i32Section(data, wantOffs[2][0], wantOffs[2][1]),
		threshold: f64Section(data, wantOffs[3][0], wantOffs[3][1]),
		p0:        f64Section(data, wantOffs[4][0], wantOffs[4][1]),
		p1:        f64Section(data, wantOffs[5][0], wantOffs[5][1]),
		cfg: ForestConfig{
			NumTrees:       int(cfgRaw[0]),
			MaxFeatures:    int(cfgRaw[1]),
			MinSamplesLeaf: int(cfgRaw[2]),
			MaxDepth:       int(cfgRaw[3]),
			Seed:           cfgRaw[4],
		},
		nf:  int(features),
		crc: wantCRC,
	}, nil
}

// validateSlabs screens the decoded slabs: every tree must be a preorder
// node stream of nodes that pass validateNode, with depth under
// maxModelDepth and right-child indices exactly matching the preorder
// structure.
func (ff *FlatForest) validateSlabs() error {
	nt := ff.NumTrees()
	nn := int32(len(ff.feature))
	if ff.treeStart[0] != 0 || ff.treeStart[nt] != nn {
		return fmt.Errorf("ml: tree index spans [%d, %d), want [0, %d)", ff.treeStart[0], ff.treeStart[nt], nn)
	}
	for t := 0; t < nt; t++ {
		if ff.treeStart[t] >= ff.treeStart[t+1] {
			return fmt.Errorf("ml: tree %d: empty or non-monotone node range [%d, %d)", t, ff.treeStart[t], ff.treeStart[t+1])
		}
		if err := ff.validateTreeSlab(ff.treeStart[t], ff.treeStart[t+1]); err != nil {
			return fmt.Errorf("ml: tree %d: %w", t, err)
		}
	}
	return nil
}

// validateTreeSlab checks one tree's nodes [base, end) with an explicit
// stack walk (no recursion, so an adversarial stream cannot exhaust the
// goroutine stack), verifying the right-child indices against the
// preorder structure.
func (ff *FlatForest) validateTreeSlab(base, end int32) error {
	// stack holds slab indices of internal nodes: inRight is false while
	// the left subtree is walked, true while the right subtree is.
	type frame struct {
		idx     int32
		inRight bool
	}
	var stack []frame
	for i := base; i < end; i++ {
		if err := ff.validateNode(i, len(stack)); err != nil {
			return fmt.Errorf("node %d: %w", i-base, err)
		}
		if ff.feature[i] >= 0 {
			stack = append(stack, frame{idx: i})
			continue
		}
		// A completed subtree either starts its parent's right subtree or
		// completes the parent too, recursively up the stack.
		for {
			if len(stack) == 0 {
				if i != end-1 {
					return fmt.Errorf("%d trailing nodes", end-1-i)
				}
				return nil
			}
			top := &stack[len(stack)-1]
			if !top.inRight {
				top.inRight = true
				if ff.right[top.idx] != i+1 {
					return fmt.Errorf("node %d: right child %d does not match preorder position %d", top.idx-base, ff.right[top.idx], i+1)
				}
				break
			}
			stack = stack[:len(stack)-1]
		}
	}
	return fmt.Errorf("truncated node stream at %d", end-base)
}

// validateNode screens slab node i at the given depth before the forest
// can serve. A bad node that loads silently fails much later — a feature
// beyond the trained dimensionality indexes out of range in the middle of
// a tree walk at serve time, a NaN threshold mis-routes every traversal
// (NaN compares false), out-of-range leaf probabilities corrupt the
// ensemble average — so every bound is enforced here, at load, with a
// clear error. The canonical zero payloads (leaf threshold and right
// index, internal probabilities) are what make an accepted blob re-encode
// byte-identically.
func (ff *FlatForest) validateNode(i int32, depth int) error {
	if depth > maxModelDepth {
		return fmt.Errorf("exceeds max depth %d", maxModelDepth)
	}
	f := ff.feature[i]
	if f < 0 {
		if f != -1 {
			return fmt.Errorf("non-canonical leaf marker %d", f)
		}
		if math.Float64bits(ff.threshold[i]) != 0 || ff.right[i] != 0 {
			return fmt.Errorf("leaf carries non-zero threshold/right payload")
		}
		for _, p := range [2]float64{ff.p0[i], ff.p1[i]} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				return fmt.Errorf("leaf probability %v outside [0, 1]", p)
			}
		}
		return nil
	}
	if math.Float64bits(ff.p0[i]) != 0 || math.Float64bits(ff.p1[i]) != 0 {
		return fmt.Errorf("internal node carries non-zero probabilities")
	}
	if ff.nf > 0 && int(f) >= ff.nf {
		return fmt.Errorf("feature index %d out of range for %d-feature model", f, ff.nf)
	}
	if ff.nf == 0 && f >= maxLegacyFeature {
		return fmt.Errorf("feature index %d implausible for a model with no feature count", f)
	}
	if math.IsNaN(ff.threshold[i]) || math.IsInf(ff.threshold[i], 0) {
		return fmt.Errorf("non-finite threshold %v", ff.threshold[i])
	}
	return nil
}
