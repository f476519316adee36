package detector

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dynaminer/internal/httpstream"
)

// The DMCP checkpoint artifact ("DynaMiner CheckPoint") captures an
// Engine's in-flight state — every session cluster's transaction
// history plus the flags replay cannot reproduce — so a restarted process
// rebuilds its watches instead of going blind until clients re-offend.
// The layout follows the DMFB model blob's conventions: little-endian,
// canonical (one state, one byte sequence), CRC-32-protected, with a
// 16-byte header:
//
//	offset 0:  magic "DMCP"
//	offset 4:  u32 format version (currently 1)
//	offset 8:  u32 CRC-32 (IEEE) over every byte from offset 16
//	offset 12: u32 reserved (zero)
//
// The body is the model version (generation u64 + blob CRC u32), the
// shard count u32, then per shard: txSeen u64, cluster count u32, and
// each cluster in engine order (order is load-bearing: cluster IDs
// allocate from the live cluster count, so replaying in order makes a
// recovered engine hand out the same IDs an uninterrupted run would).
//
// Restore does NOT trust the checkpoint for derived state. Each
// cluster's transactions are replayed through the real pipeline
// (clue inference, WCG construction, incremental feature state) with
// classification suppressed, so the rebuilt watches are byte-for-byte
// the structures the original engine held — only the flags replay
// cannot reproduce (alerted, quarantine faults, cross-shard shed
// decisions, the pinned model version) are applied from the snapshot.
const (
	checkpointMagic   = "DMCP"
	checkpointVersion = 1
	checkpointHdrLen  = 16
)

// cluster flag bits in the checkpoint encoding.
const (
	ckptWatching = 1 << 0
	ckptAlerted  = 1 << 1
)

// IsCheckpoint reports whether prefix starts with the DMCP magic.
func IsCheckpoint(prefix []byte) bool {
	return len(prefix) >= len(checkpointMagic) && string(prefix[:len(checkpointMagic)]) == string(checkpointMagic)
}

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
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.hist)))
	for i := range c.hist {
		dst = appendTx(dst, &c.hist[i].tx)
	}
	return dst
}

// appendTx serializes one HTTP transaction canonically: fixed field
// order, u32 length prefixes, header keys sorted.
func appendTx(dst []byte, tx *httpstream.Transaction) []byte {
	dst = appendAddr(dst, tx.ClientIP)
	dst = appendAddr(dst, tx.ServerIP)
	dst = binary.LittleEndian.AppendUint16(dst, tx.ClientPort)
	dst = binary.LittleEndian.AppendUint16(dst, tx.ServerPort)
	dst = appendString(dst, tx.Method)
	dst = appendString(dst, tx.URI)
	dst = appendString(dst, tx.Host)
	dst = appendHeader(dst, tx.ReqHdr)
	dst = appendTime(dst, tx.ReqTime)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(tx.ReqBodySize)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(tx.StatusCode)))
	dst = appendHeader(dst, tx.RespHdr)
	dst = appendTime(dst, tx.RespTime)
	dst = appendString(dst, tx.ContentType)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(tx.BodySize)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tx.Body)))
	dst = append(dst, tx.Body...)
	return dst
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

// appendHeader encodes an http.Header with sorted keys so identical
// headers always produce identical bytes.
func appendHeader(dst []byte, h http.Header) []byte {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		vals := h[k]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
		for _, v := range vals {
			dst = appendString(dst, v)
		}
	}
	return dst
}

// ckptReader is a bounds-checked little-endian cursor over a checkpoint
// body; every read returns a named error instead of panicking on
// truncated or hostile input. No count field sizes an allocation: slices
// and maps grow only as the entries they count are read, so a count that
// no bytes back fails as truncated before it costs memory.
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

func (r *ckptReader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
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

func (r *ckptReader) header() (http.Header, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	h := make(http.Header)
	for i := uint32(0); i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		nv, err := r.u32()
		if err != nil {
			return nil, err
		}
		var vals []string
		for j := uint32(0); j < nv; j++ {
			v, err := r.str()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		h[k] = vals
	}
	return h, nil
}

// clusterSnapshot is one decoded cluster record: the transaction history
// to replay plus the flags replay cannot reproduce.
type clusterSnapshot struct {
	id         int
	client     netip.Addr
	watching   bool
	alerted    bool
	faults     int
	pin        ModelVersion
	lastActive time.Time
	txs        []httpstream.Transaction
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
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		tx, err := r.tx()
		if err != nil {
			return nil, err
		}
		cs.txs = append(cs.txs, tx)
	}
	return cs, nil
}

func (r *ckptReader) tx() (httpstream.Transaction, error) {
	var tx httpstream.Transaction
	var err error
	if tx.ClientIP, err = r.addr(); err != nil {
		return tx, err
	}
	if tx.ServerIP, err = r.addr(); err != nil {
		return tx, err
	}
	if tx.ClientPort, err = r.u16(); err != nil {
		return tx, err
	}
	if tx.ServerPort, err = r.u16(); err != nil {
		return tx, err
	}
	if tx.Method, err = r.str(); err != nil {
		return tx, err
	}
	if tx.URI, err = r.str(); err != nil {
		return tx, err
	}
	if tx.Host, err = r.str(); err != nil {
		return tx, err
	}
	if tx.ReqHdr, err = r.header(); err != nil {
		return tx, err
	}
	if tx.ReqTime, err = r.timestamp(); err != nil {
		return tx, err
	}
	reqBody, err := r.u64()
	if err != nil {
		return tx, err
	}
	tx.ReqBodySize = int(int64(reqBody))
	status, err := r.u32()
	if err != nil {
		return tx, err
	}
	tx.StatusCode = int(int32(status))
	if tx.RespHdr, err = r.header(); err != nil {
		return tx, err
	}
	if tx.RespTime, err = r.timestamp(); err != nil {
		return tx, err
	}
	if tx.ContentType, err = r.str(); err != nil {
		return tx, err
	}
	bodySize, err := r.u64()
	if err != nil {
		return tx, err
	}
	tx.BodySize = int(int64(bodySize))
	n, err := r.u32()
	if err != nil {
		return tx, err
	}
	body, err := r.take(int(n))
	if err != nil {
		return tx, err
	}
	if len(body) > 0 {
		tx.Body = append([]byte(nil), body...)
	}
	return tx, nil
}

// checkpointBody validates a DMCP artifact's header and CRC and returns
// a reader over the body.
func checkpointBody(data []byte) (*ckptReader, error) {
	if len(data) < checkpointHdrLen {
		return nil, fmt.Errorf("detector: checkpoint: %d bytes is shorter than the %d-byte header", len(data), checkpointHdrLen)
	}
	if !IsCheckpoint(data) {
		return nil, fmt.Errorf("detector: checkpoint: bad magic %q", string(data[:4]))
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != checkpointVersion {
		return nil, fmt.Errorf("detector: checkpoint: unsupported format version %d (want %d)", v, checkpointVersion)
	}
	want := binary.LittleEndian.Uint32(data[8:])
	if got := crc32.ChecksumIEEE(data[checkpointHdrLen:]); got != want {
		return nil, fmt.Errorf("detector: checkpoint: CRC mismatch: stored %08x, computed %08x", want, got)
	}
	return &ckptReader{b: data, off: checkpointHdrLen}, nil
}

// CheckpointInfo summarizes a DMCP artifact without restoring it.
type CheckpointInfo struct {
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

// ReadCheckpointInfo validates and summarizes a DMCP artifact.
func ReadCheckpointInfo(data []byte) (CheckpointInfo, error) {
	var info CheckpointInfo
	r, err := checkpointBody(data)
	if err != nil {
		return info, err
	}
	if info.ModelVersion.Gen, err = r.u64(); err != nil {
		return info, err
	}
	if info.ModelVersion.CRC, err = r.u32(); err != nil {
		return info, err
	}
	shards, err := r.u32()
	if err != nil {
		return info, err
	}
	info.Shards = int(shards)
	for s := uint32(0); s < shards; s++ {
		txSeen, err := r.u64()
		if err != nil {
			return info, err
		}
		info.TxSeen += int64(txSeen)
		n, err := r.u32()
		if err != nil {
			return info, err
		}
		for i := uint32(0); i < n; i++ {
			cs, err := r.cluster()
			if err != nil {
				return info, err
			}
			info.Clusters++
			info.Transactions += len(cs.txs)
			if cs.watching {
				info.Watching++
			}
		}
	}
	return info, nil
}

// RestoreCheckpoint rebuilds a freshly constructed engine from a DMCP
// artifact: every cluster's transactions are replayed through the real
// pipeline with classification suppressed, then the snapshot's
// irreproducible flags (alerted, faults, shed/watching state, pinned
// model) are applied. The engine must be empty and have the same shard
// count the checkpoint was taken with; on any validation error the
// engine is left untouched or partially restored — callers treat a
// failed restore as a cold start.
func (e *Engine) RestoreCheckpoint(data []byte) (restored int, err error) {
	r, err := checkpointBody(data)
	if err != nil {
		return 0, err
	}
	if _, err = r.u64(); err != nil { // model generation (informational)
		return 0, err
	}
	if _, err = r.u32(); err != nil { // model CRC (informational)
		return 0, err
	}
	shards, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int(shards) != len(e.shards) {
		return 0, fmt.Errorf("detector: checkpoint: taken with %d shards, engine has %d (cluster IDs would not line up)", shards, len(e.shards))
	}
	for si := uint32(0); si < shards; si++ {
		txSeen, err := r.u64()
		if err != nil {
			return restored, err
		}
		n, err := r.u32()
		if err != nil {
			return restored, err
		}
		sh := e.shards[si]
		sh.mu.Lock()
		if len(sh.st.clusters) != 0 {
			sh.mu.Unlock()
			return restored, fmt.Errorf("detector: checkpoint: shard %d is not empty (restore requires a fresh engine)", si)
		}
		for i := uint32(0); i < n; i++ {
			cs, err := r.cluster()
			if err != nil {
				sh.mu.Unlock()
				return restored, err
			}
			sh.st.restoreCluster(cs)
			restored++
		}
		sh.st.txSeen = int64(txSeen)
		sh.mu.Unlock()
	}
	if r.off != len(r.b) {
		return restored, fmt.Errorf("detector: checkpoint: %d trailing bytes after the last shard", len(r.b)-r.off)
	}
	return restored, nil
}

// restoreCluster rebuilds one session cluster by replaying its
// checkpointed transactions through the per-cluster pipeline with
// e.restoring set: clue inference, WCG construction and incremental
// feature state all rebuild exactly as they did live, while
// classification, shedding and the activity counters stay quiet. The
// snapshot's irreproducible flags are applied afterwards. The caller
// holds the shard lock.
func (s *shardState) restoreCluster(cs *clusterSnapshot) {
	c := s.newCluster(cs.id, cs.client)

	s.restoring = true
	defer func() { s.restoring = false }()
	for i := range cs.txs {
		tx := cs.txs[i]
		s.processInCluster(c, tx, keysOf(&tx, txHost(&tx)))
	}

	// Reconcile with the snapshot: a watch the original engine closed (a
	// cross-cluster shed, which per-cluster replay cannot see) is closed
	// here too, preserving its WCG in the closed list exactly as the shed
	// did.
	if c.watching && !cs.watching {
		s.closeWatch(c)
	}
	c.alerted = cs.alerted
	c.faults = cs.faults
	if c.faults > 0 {
		// Quarantine dropped the incremental cache in the original engine;
		// keeping the replayed one would resurrect the path quarantine
		// pinned away from.
		c.ib, c.cache, c.fed = nil, nil, 0
	}
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
