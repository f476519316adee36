package detector

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/wcg"
)

// The DMCP checkpoint artifact ("DynaMiner CheckPoint") captures an
// Engine's in-flight state — every session cluster's host table and
// record history plus the flags replay cannot reproduce — so a restarted
// process rebuilds its watches instead of going blind until clients
// re-offend. The layout follows the DMFB model blob's conventions:
// little-endian, canonical (one state, one byte sequence),
// CRC-32-protected, with a 16-byte header:
//
//	offset 0:  magic "DMCP"
//	offset 4:  u32 format version (2)
//	offset 8:  u32 CRC-32 (IEEE) over every byte from offset 16
//	offset 12: u32 reserved (zero)
//
// The body is the model version (generation u64 + blob CRC u32), the
// shard count u32, then per shard: txSeen u64, cluster count u32, and
// each cluster in engine order (the order the client index lists a
// client's clusters in, newest last, which routing reads). Cluster IDs
// number the shard's transactions (txSeen at the opening one), so the
// restored txSeen makes a recovered engine hand out the same IDs an
// uninterrupted run would.
// A cluster is its ID u64, client address, flags u8, quarantine faults
// u8, pinned model (generation u64 + CRC u32) and last activity, then
// its host table — u32 count of length-prefixed names, u32 count of u32
// sniffed-host indexes — and its history: a u32 count of fixed 95-byte
// records (appendRecord gives the field order). This is the one
// version read: any other is refused at the header, before the CRC is
// checked.
//
// Restore does NOT trust the checkpoint for derived state. Each
// cluster's records are replayed through the real pipeline
// (clue inference, WCG construction, incremental feature state) with
// classification suppressed, so the rebuilt watches are byte-for-byte
// the structures the original engine held — only the flags replay
// cannot reproduce (alerted, quarantine faults, the pinned model
// version) are applied from the snapshot. The watching bit is derived
// state replay rebuilds; it is still written, and ReadCheckpointInfo
// counts it.
const (
	checkpointMagic   = "DMCP"
	checkpointVersion = 2
	checkpointHdrLen  = 16
	// ckptRecordLen is the encoded size of one wcg.Record.
	ckptRecordLen = 95
)

// cluster flag bits in the checkpoint encoding.
const (
	ckptWatching = 1 << 0
	ckptAlerted  = 1 << 1
)

// AppendCheckpoint appends the engine's canonical DMCP encoding to dst
// and returns the extended slice. Each shard is serialized under its own
// lock, one shard at a time, so a checkpoint never stops the world — it
// is a sequence of per-shard consistent cuts, which the recovery
// contract only needs per-cluster consistency for (clients never span
// shards).
func (e *Engine) AppendCheckpoint(dst []byte) []byte {
	base := len(dst)
	dst = append(dst, checkpointMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, checkpointVersion)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // CRC patched below
	dst = binary.LittleEndian.AppendUint32(dst, 0) // reserved

	v := e.ModelVersion()
	dst = binary.LittleEndian.AppendUint64(dst, v.Gen)
	dst = binary.LittleEndian.AppendUint32(dst, v.CRC)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.shards)))
	for _, sh := range e.shards {
		sh.mu.Lock()
		dst = sh.st.appendShardState(dst)
		sh.mu.Unlock()
	}
	crc := crc32.ChecksumIEEE(dst[base+checkpointHdrLen:])
	binary.LittleEndian.PutUint32(dst[base+8:], crc)
	return dst
}

// appendShardState serializes one engine shard; the caller holds the
// shard lock.
func (s *shardState) appendShardState(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.txSeen))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.clusters)))
	for _, c := range s.clusters {
		dst = appendClusterState(dst, c)
	}
	return dst
}

func appendClusterState(dst []byte, c *cluster) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(c.id)))
	dst = appendAddr(dst, c.client)
	var flags byte
	if c.watching {
		flags |= ckptWatching
	}
	if c.alerted {
		flags |= ckptAlerted
	}
	dst = append(dst, flags, byte(c.faults))
	var pin ModelVersion
	if c.pinned != nil {
		pin = c.pinned.version
	}
	dst = binary.LittleEndian.AppendUint64(dst, pin.Gen)
	dst = binary.LittleEndian.AppendUint32(dst, pin.CRC)
	dst = appendTime(dst, c.lastActive)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.hosts.Names)))
	for _, name := range c.hosts.Names {
		dst = appendString(dst, name)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.hosts.Sniffs)))
	for _, i := range c.hosts.Sniffs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.hist)))
	for i := range c.hist {
		dst = appendRecord(dst, &c.hist[i])
	}
	return dst
}

// appendRecord encodes one record in ckptRecordLen bytes.
func appendRecord(dst []byte, r *wcg.Record) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(r.ReqTime))
	dst = le.AppendUint64(dst, uint64(r.RespTime))
	dst = le.AppendUint64(dst, uint64(r.BodySize))
	dst = le.AppendUint64(dst, r.URIHash)
	for _, v := range [...]int32{r.Host, r.Ref, r.Loc, r.SID, r.Flash, r.Method, int32(r.SniffLo), int32(r.SniffHi), r.URILen, r.Status} {
		dst = le.AppendUint32(dst, uint32(v))
	}
	dst = append(dst, r.ServerIP[:]...)
	dst = le.AppendUint32(dst, uint32(r.ServerZone))
	return append(dst, r.ServerKind, r.Payload, r.Flags)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendAddr(dst []byte, a netip.Addr) []byte {
	b, _ := a.MarshalBinary() // cannot fail
	dst = append(dst, byte(len(b)))
	return append(dst, b...)
}

// appendTime encodes a timestamp as a set/unset flag plus UnixNano: the
// zero time.Time is outside UnixNano's round-trippable range, and the
// engine's "no response yet" checks depend on IsZero surviving a
// restart.
func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		dst = append(dst, 0)
		return binary.LittleEndian.AppendUint64(dst, 0)
	}
	dst = append(dst, 1)
	return binary.LittleEndian.AppendUint64(dst, uint64(t.UnixNano()))
}

// ckptReader is a bounds-checked little-endian cursor over a checkpoint
// body; every read returns a named error instead of panicking on
// truncated or hostile input. No count field sizes an allocation before
// the bytes it counts are there: slices and maps grow as the entries they
// count are read, or, for fixed-size entries, once the remaining bytes
// are known to hold them all, so a count that no bytes back fails as
// truncated before it costs memory.
type ckptReader struct {
	b   []byte
	off int
}

func (r *ckptReader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, fmt.Errorf("detector: checkpoint: truncated at offset %d (need %d bytes)", r.off, n)
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *ckptReader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *ckptReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *ckptReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *ckptReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *ckptReader) addr() (netip.Addr, error) {
	n, err := r.u8()
	if err != nil {
		return netip.Addr{}, err
	}
	b, err := r.take(int(n))
	if err != nil {
		return netip.Addr{}, err
	}
	var a netip.Addr
	if err := a.UnmarshalBinary(b); err != nil {
		return netip.Addr{}, fmt.Errorf("detector: checkpoint: bad address: %w", err)
	}
	return a, nil
}

func (r *ckptReader) timestamp() (time.Time, error) {
	set, err := r.u8()
	if err != nil {
		return time.Time{}, err
	}
	n, err := r.u64()
	if err != nil {
		return time.Time{}, err
	}
	if set == 0 {
		return time.Time{}, nil
	}
	return time.Unix(0, int64(n)), nil
}

// clusterSnapshot is one decoded cluster: the history to replay — a host
// table and its records — plus the flags replay cannot reproduce.
type clusterSnapshot struct {
	id         int
	client     netip.Addr
	watching   bool
	alerted    bool
	faults     int
	pin        ModelVersion
	lastActive time.Time
	hosts      wcg.Table
	recs       []wcg.Record
}

func (r *ckptReader) cluster() (*clusterSnapshot, error) {
	cs := &clusterSnapshot{}
	id, err := r.u64()
	if err != nil {
		return nil, err
	}
	cs.id = int(int64(id))
	if cs.client, err = r.addr(); err != nil {
		return nil, err
	}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	cs.watching = flags&ckptWatching != 0
	cs.alerted = flags&ckptAlerted != 0
	faults, err := r.u8()
	if err != nil {
		return nil, err
	}
	cs.faults = int(faults)
	if cs.pin.Gen, err = r.u64(); err != nil {
		return nil, err
	}
	if cs.pin.CRC, err = r.u32(); err != nil {
		return nil, err
	}
	if cs.lastActive, err = r.timestamp(); err != nil {
		return nil, err
	}
	if err := r.table(cs); err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n)*ckptRecordLen > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("detector: checkpoint: truncated at offset %d (%d records claimed)", r.off, n)
	}
	cs.recs = make([]wcg.Record, n)
	for i := range cs.recs {
		if err := r.record(&cs.recs[i], &cs.hosts); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// table reads a cluster's host table into cs.hosts. Names must be
// distinct and sniffed hosts must index them.
func (r *ckptReader) table(cs *clusterSnapshot) error {
	cs.hosts.Client = cs.client
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		name, err := r.str()
		if err != nil {
			return err
		}
		if cs.hosts.Intern(name) != int32(i) {
			return fmt.Errorf("detector: checkpoint: host table repeats %q", name)
		}
	}
	if n, err = r.u32(); err != nil {
		return err
	}
	if uint64(n)*4 > uint64(len(r.b)-r.off) {
		return fmt.Errorf("detector: checkpoint: truncated at offset %d (%d sniffed hosts claimed)", r.off, n)
	}
	cs.hosts.Sniffs = make([]int32, n)
	for i := range cs.hosts.Sniffs {
		v, _ := r.u32()
		if v >= uint32(len(cs.hosts.Names)) {
			return fmt.Errorf("detector: checkpoint: sniffed host %d outside the %d-name host table", v, len(cs.hosts.Names))
		}
		cs.hosts.Sniffs[i] = int32(v)
	}
	return nil
}

// record decodes one record of table t, whose names and sniffs it must
// index consistently: a record that passes replays without a fault.
func (r *ckptReader) record(rec *wcg.Record, t *wcg.Table) error {
	b, err := r.take(ckptRecordLen)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	rec.ReqTime = int64(le.Uint64(b[0:]))
	rec.RespTime = int64(le.Uint64(b[8:]))
	rec.BodySize = int64(le.Uint64(b[16:]))
	rec.URIHash = le.Uint64(b[24:])
	var v [10]int32
	for i := range v {
		v[i] = int32(le.Uint32(b[32+4*i:]))
	}
	rec.Host, rec.Ref, rec.Loc, rec.SID, rec.Flash, rec.Method = v[0], v[1], v[2], v[3], v[4], v[5]
	rec.SniffLo, rec.SniffHi, rec.URILen, rec.Status = uint32(v[6]), uint32(v[7]), v[8], v[9]
	copy(rec.ServerIP[:], b[72:88])
	rec.ServerZone = int32(le.Uint32(b[88:]))
	rec.ServerKind, rec.Payload, rec.Flags = b[92], b[93], b[94]

	names := int32(len(t.Names))
	in := func(i int32) bool { return i >= -1 && i < names }
	switch {
	case rec.Host < 0 || rec.Host >= names || !in(rec.Ref) || !in(rec.Loc) || !in(rec.SID) || !in(rec.Flash) || !in(rec.ServerZone):
		return fmt.Errorf("detector: checkpoint: record names a string outside the %d-name host table", names)
	case rec.Method < -int32(wcg.NumKnownMethods) || rec.Method >= names:
		return fmt.Errorf("detector: checkpoint: bad record method %d", rec.Method)
	case rec.SniffLo > rec.SniffHi || rec.SniffHi > uint32(len(t.Sniffs)):
		return fmt.Errorf("detector: checkpoint: record sniffs [%d, %d) outside %d", rec.SniffLo, rec.SniffHi, len(t.Sniffs))
	case rec.Payload >= uint8(httpstream.NumPayloadClasses):
		return fmt.Errorf("detector: checkpoint: bad payload class %d", rec.Payload)
	case rec.ServerKind != 0 && rec.ServerKind != 4 && rec.ServerKind != 6, rec.ServerZone >= 0 && rec.ServerKind != 6:
		return fmt.Errorf("detector: checkpoint: bad server address kind %d", rec.ServerKind)
	case (rec.Flags&wcg.RecRedirect != 0) != (rec.Loc >= 0), rec.Flags&wcg.RecRefRecent != 0 && rec.Ref < 0:
		return fmt.Errorf("detector: checkpoint: record flags %#x disagree with its hosts", rec.Flags)
	}
	return nil
}

// ckptVisitor receives a checkpoint's parts as walkCheckpoint reads them.
type ckptVisitor struct {
	// shards gets the model version and shard count, before any shard.
	shards func(model ModelVersion, n uint32) error
	// shard gets shard i's ingestion counter and must call clusters
	// exactly once; clusters decodes the shard's clusters in engine order
	// and hands each to each as soon as it is read.
	shard func(i int, txSeen int64, clusters func(each func(*clusterSnapshot)) error) error
}

// walkCheckpoint is the one reader of a DMCP artifact: header and CRC,
// model version and shard count, each shard's counter and clusters, then
// the end of the bytes. The info view and restore are two visitors of
// it, so they accept exactly the same artifacts. The version is checked
// before the CRC, so an artifact of another version is named as such
// whatever its body holds.
func walkCheckpoint(data []byte, v ckptVisitor) error {
	if len(data) < checkpointHdrLen {
		return fmt.Errorf("detector: checkpoint: %d bytes is shorter than the %d-byte header", len(data), checkpointHdrLen)
	}
	if string(data[:len(checkpointMagic)]) != checkpointMagic {
		return fmt.Errorf("detector: checkpoint: bad magic %q", string(data[:4]))
	}
	if ver := binary.LittleEndian.Uint32(data[4:]); ver != checkpointVersion {
		return fmt.Errorf("detector: checkpoint: format version %d, this build reads only version %d (delete the file to cold-start)", ver, checkpointVersion)
	}
	want := binary.LittleEndian.Uint32(data[8:])
	if got := crc32.ChecksumIEEE(data[checkpointHdrLen:]); got != want {
		return fmt.Errorf("detector: checkpoint: CRC mismatch: stored %08x, computed %08x", want, got)
	}
	r := &ckptReader{b: data, off: checkpointHdrLen}
	var model ModelVersion
	var err error
	if model.Gen, err = r.u64(); err != nil {
		return err
	}
	if model.CRC, err = r.u32(); err != nil {
		return err
	}
	shards, err := r.u32()
	if err != nil {
		return err
	}
	if shards == 0 { // an engine has at least one shard
		return fmt.Errorf("detector: checkpoint: zero shards")
	}
	if err := v.shards(model, shards); err != nil {
		return err
	}
	for si := uint32(0); si < shards; si++ {
		txSeen, err := r.u64()
		if err != nil {
			return err
		}
		n, err := r.u32()
		if err != nil {
			return err
		}
		err = v.shard(int(si), int64(txSeen), func(each func(*clusterSnapshot)) error {
			for i := uint32(0); i < n; i++ {
				cs, err := r.cluster()
				if err != nil {
					return err
				}
				each(cs)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if r.off != len(r.b) {
		return fmt.Errorf("detector: checkpoint: %d trailing bytes after the last shard", len(r.b)-r.off)
	}
	return nil
}

// CheckpointInfo summarizes a DMCP artifact without restoring it.
type CheckpointInfo struct {
	// Version is the DMCP format version the artifact was written in.
	Version int
	// ModelVersion is the serving model at checkpoint time.
	ModelVersion ModelVersion
	// Shards is the engine's shard count; a checkpoint only restores into
	// an engine with the same count.
	Shards int
	// TxSeen totals the per-shard ingestion counters.
	TxSeen int64
	// Clusters and Watching count session clusters and in-flight watches.
	Clusters, Watching int
	// Transactions totals the checkpointed transaction histories.
	Transactions int
}

// ReadCheckpointInfo validates and summarizes a DMCP artifact. It
// accepts exactly the artifacts RestoreCheckpoint accepts, shard count
// and engine state aside.
func ReadCheckpointInfo(data []byte) (CheckpointInfo, error) {
	info := CheckpointInfo{Version: checkpointVersion}
	err := walkCheckpoint(data, ckptVisitor{
		shards: func(model ModelVersion, n uint32) error {
			info.ModelVersion, info.Shards = model, int(n)
			return nil
		},
		shard: func(_ int, txSeen int64, clusters func(func(*clusterSnapshot)) error) error {
			info.TxSeen += txSeen
			return clusters(func(cs *clusterSnapshot) {
				info.Clusters++
				info.Transactions += len(cs.recs)
				if cs.watching {
					info.Watching++
				}
			})
		},
	})
	return info, err
}

// RestoreCheckpoint rebuilds a freshly constructed engine from a DMCP
// artifact: every cluster's records are replayed through the real
// pipeline with classification suppressed, then the snapshot's
// irreproducible flags (alerted, faults, pinned model) are applied. The
// engine must be empty and have the same shard count the checkpoint was
// taken with; on any validation error the engine is left untouched or
// partially restored — callers treat a failed restore as a cold start.
func (e *Engine) RestoreCheckpoint(data []byte) (restored int, err error) {
	err = walkCheckpoint(data, ckptVisitor{
		shards: func(_ ModelVersion, n uint32) error {
			if int(n) != len(e.shards) {
				return fmt.Errorf("detector: checkpoint: taken with %d shards, engine has %d (clients would route to other shards); the engine sizes itself by GOMAXPROCS, so set GOMAXPROCS=%d to restore it", n, len(e.shards), n)
			}
			return nil
		},
		shard: func(i int, txSeen int64, clusters func(func(*clusterSnapshot)) error) error {
			sh := e.shards[i]
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if len(sh.st.clusters) != 0 {
				return fmt.Errorf("detector: checkpoint: shard %d is not empty (restore requires a fresh engine)", i)
			}
			err := clusters(func(cs *clusterSnapshot) {
				sh.st.restoreCluster(cs)
				restored++
			})
			if err != nil {
				return err
			}
			sh.st.txSeen = txSeen
			return nil
		},
	})
	return restored, err
}

// restoreCluster rebuilds one session cluster by restoring its host
// table and replaying its checkpointed records through the per-cluster
// pipeline with e.restoring set: clue inference and the watch set rebuild
// exactly as they did live, while classification and the activity
// counters stay quiet. No live WCG is built during replay, so the first
// classification after the restore seeds it from the watch. The
// snapshot's irreproducible flags are applied afterwards. The caller
// holds the shard lock.
func (s *shardState) restoreCluster(cs *clusterSnapshot) {
	c := s.newCluster(cs.id, cs.client)

	s.restoring = true
	defer func() { s.restoring = false }()
	c.hosts = cs.hosts
	c.seen = make([]hostSeen, len(c.hosts.Names))
	for i := range c.seen {
		c.seen[i].since = -1
	}
	for _, r := range cs.recs {
		s.replayRecord(c, r)
	}

	c.alerted = cs.alerted
	c.faults = cs.faults
	c.lastActive = cs.lastActive
	if c.watching {
		// Re-pin by blob CRC: generations restarted with the process, but
		// the same forest bytes mean bit-identical scoring.
		c.pinned = s.models.matchPinned(cs.pin.CRC)
	}
}

// MarkAlerted sets the alerted flag on the identified cluster, returning
// whether it was found. Recovery uses this while replaying the alert
// journal: an alert the pre-crash process already raised must not fire
// again from the restored watch's next growth.
func (e *Engine) MarkAlerted(client netip.Addr, clusterID int) bool {
	sh := e.shardFor(client)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, c := range sh.st.byClient[client] {
		if c.id == clusterID {
			c.alerted = true
			return true
		}
	}
	return false
}

// WriteCheckpointFile atomically writes the engine's checkpoint to path:
// the artifact is staged in a temp file in the same directory, fsynced,
// and renamed into place, so a crash mid-write leaves the previous
// checkpoint intact — a reader never observes a torn DMCP file.
func (e *Engine) WriteCheckpointFile(path string) error {
	return writeFileAtomic(path, e.AppendCheckpoint(nil))
}

// RestoreCheckpointFile restores the engine from a DMCP file; see
// RestoreCheckpoint.
func (e *Engine) RestoreCheckpointFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("detector: checkpoint: %w", err)
	}
	return e.RestoreCheckpoint(data)
}

// ReadCheckpointInfoFile validates and summarizes a DMCP file.
func ReadCheckpointInfoFile(path string) (CheckpointInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("detector: checkpoint: %w", err)
	}
	return ReadCheckpointInfo(data)
}

// writeFileAtomic stages data in a temp file next to path, forces it to
// stable storage, and renames it into place.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("detector: checkpoint write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("detector: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("detector: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("detector: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("detector: checkpoint rename: %w", err)
	}
	// Best effort: persist the rename itself so the checkpoint survives a
	// power loss immediately after this call returns.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
