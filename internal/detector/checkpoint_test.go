package detector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/netip"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
)

// readdress clones a transaction stream onto a different client address,
// so multi-client checkpoint tests exercise more than one shard.
func readdress(txs []httpstream.Transaction, client netip.Addr) []httpstream.Transaction {
	out := append([]httpstream.Transaction(nil), txs...)
	for i := range out {
		out[i].ClientIP = client
	}
	return out
}

// checkpointClients is a fixed set of clients that hash to more than one
// shard of a two-shard engine.
var checkpointClients = []netip.Addr{
	netip.MustParseAddr("10.0.0.44"),
	netip.MustParseAddr("10.0.1.7"),
	netip.MustParseAddr("10.0.2.99"),
}

// interleaved returns per-client infection streams interleaved in time
// order: for each of the 5 stream positions, every client's transaction.
func interleaved(txs []httpstream.Transaction) []httpstream.Transaction {
	perClient := make([][]httpstream.Transaction, len(checkpointClients))
	for i, c := range checkpointClients {
		perClient[i] = readdress(txs, c)
	}
	var out []httpstream.Transaction
	for p := 0; p < len(txs); p++ {
		for i := range perClient {
			out = append(out, perClient[i][p])
		}
	}
	return out
}

// TestCheckpointRoundTripBitIdentical is the recovery acceptance test: an
// engine checkpointed mid-watch, restored into a fresh process-alike
// engine, must continue the stream with alerts bit-identical to the
// uninterrupted engine's — same scores (to the bit), same cluster IDs,
// same timestamps, same watch inventory.
func TestCheckpointRoundTripBitIdentical(t *testing.T) {
	cfg := Config{Shards: 2, RedirectThreshold: 3}
	model := trainDimForest(t, 37, 31)

	uninterrupted := New(cfg, model)
	crashed := New(cfg, model)

	head := interleaved(infectionStream()) // arms one watch per client
	var headUn, headCr []Alert
	for _, tx := range head {
		headUn = append(headUn, uninterrupted.Process(tx)...)
		headCr = append(headCr, crashed.Process(tx)...)
	}
	if len(headUn) != len(headCr) {
		t.Fatalf("pre-checkpoint alert streams diverged: %d vs %d", len(headUn), len(headCr))
	}

	data := crashed.AppendCheckpoint(nil)
	info, err := ReadCheckpointInfo(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 2 || info.Clusters != len(checkpointClients) || info.Watching != len(checkpointClients) {
		t.Fatalf("checkpoint info %+v, want 2 shards, %d clusters all watching", info, len(checkpointClients))
	}
	if info.ModelVersion != crashed.ModelVersion() {
		t.Fatalf("checkpoint model version %v, want %v", info.ModelVersion, crashed.ModelVersion())
	}
	if info.TxSeen != int64(len(head)) {
		t.Fatalf("checkpoint TxSeen = %d, want %d", info.TxSeen, len(head))
	}

	// "Restart": a fresh engine with the same config and model.
	restored := New(cfg, model)
	n, err := restored.RestoreCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(checkpointClients) {
		t.Fatalf("restored %d clusters, want %d", n, len(checkpointClients))
	}

	// The watch inventory must match the pre-crash engine exactly.
	wantWatch, gotWatch := crashed.Watched(), restored.Watched()
	if len(gotWatch) != len(wantWatch) {
		t.Fatalf("restored %d watches, want %d", len(gotWatch), len(wantWatch))
	}
	for i := range wantWatch {
		w, g := wantWatch[i], gotWatch[i]
		if g.ClusterID != w.ClusterID || g.Client != w.Client ||
			g.Transactions != w.Transactions || g.Hosts != w.Hosts || !g.LastGrowth.Equal(w.LastGrowth) {
			t.Fatalf("watch %d diverged after restore:\n got %+v\nwant %+v", i, g, w)
		}
	}

	// Continue both runs with growth and a second download per client; the
	// alert streams must be bit-identical.
	var tail []httpstream.Transaction
	for _, c := range checkpointClients {
		full := readdress(relatedFollowUp(3), c)
		tail = append(tail, full[5:]...) // the post-clue transactions only
	}
	var tailUn, tailRe []Alert
	for _, tx := range tail {
		tailUn = append(tailUn, uninterrupted.Process(tx)...)
		tailRe = append(tailRe, restored.Process(tx)...)
	}
	if len(tailUn) == 0 {
		t.Fatal("tail produced no alerts; the differential is vacuous")
	}
	if len(tailUn) != len(tailRe) {
		t.Fatalf("post-recovery alert counts diverged: uninterrupted=%d restored=%d", len(tailUn), len(tailRe))
	}
	for i := range tailUn {
		u, r := tailUn[i], tailRe[i]
		if math.Float64bits(u.Score) != math.Float64bits(r.Score) {
			t.Fatalf("alert %d score diverged after recovery: %x vs %x",
				i, math.Float64bits(u.Score), math.Float64bits(r.Score))
		}
		if u.ClusterID != r.ClusterID || u.Client != r.Client || !u.Time.Equal(r.Time) ||
			u.TriggerHost != r.TriggerHost || u.TriggerPayload != r.TriggerPayload {
			t.Fatalf("alert %d identity diverged after recovery:\n got %+v\nwant %+v", i, r, u)
		}
	}

	// The restored engine resumes the eviction cadence from the same
	// transaction offset.
	var wantSeen, gotSeen int64
	for i := range uninterrupted.shards {
		wantSeen += uninterrupted.shards[i].st.txSeen
		gotSeen += restored.shards[i].st.txSeen
	}
	if gotSeen != wantSeen {
		t.Fatalf("restored txSeen = %d, want %d", gotSeen, wantSeen)
	}
}

// corpusStream flattens a synth corpus into one time-ordered stream, one
// client address per episode.
func corpusStream(cfg synth.Config) []httpstream.Transaction {
	var txs []httpstream.Transaction
	for i, ep := range synth.GenerateCorpus(cfg) {
		ip := netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
		for _, tx := range ep.Txs {
			tx.ClientIP = ip
			txs = append(txs, tx)
		}
	}
	sort.SliceStable(txs, func(i, j int) bool { return txs[i].ReqTime.Before(txs[j].ReqTime) })
	return txs
}

// TestRollingRestoreMixedCaseHosts is the recovered ≡ uninterrupted
// differential for hosts that arrive upper-cased: DNS names are
// case-insensitive, so the restore replay must fold the Host header
// exactly as live processing does. An engine checkpointed and restored
// into a fresh engine every 7th transaction must alert — scores to the
// bit, cluster IDs, WCGs in order — and watch exactly like one that never
// stopped. One restore is not enough: a replayed cluster only diverges
// once later traffic has to link to the hosts it restored.
func TestRollingRestoreMixedCaseHosts(t *testing.T) {
	txs := corpusStream(synth.Config{Seed: 1, Infections: 20, Benign: 5})
	for i := range txs {
		txs[i].Host = strings.ToUpper(txs[i].Host)
	}
	cfg := Config{Shards: 2, RedirectThreshold: 3}
	uninterrupted := New(cfg, vecScorer{})
	rolling := New(cfg, vecScorer{})
	alerts := 0
	for i, tx := range txs {
		if i > 0 && i%7 == 0 {
			fresh := New(cfg, vecScorer{})
			if _, err := fresh.RestoreCheckpoint(rolling.AppendCheckpoint(nil)); err != nil {
				t.Fatalf("restore before transaction %d: %v", i, err)
			}
			rolling = fresh
		}
		want := uninterrupted.Process(tx)
		requireSameAlerts(t, fmt.Sprintf("transaction %d", i), rolling.Process(tx), want)
		alerts += len(want)
	}
	if alerts == 0 {
		t.Fatal("the corpus raised no alerts; the differential is vacuous")
	}
	want, got := uninterrupted.Watched(), rolling.Watched()
	if len(got) != len(want) {
		t.Fatalf("rolling restore watches %d WCGs, uninterrupted %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.ClusterID != w.ClusterID || g.Client != w.Client ||
			g.Transactions != w.Transactions || g.Hosts != w.Hosts || !g.LastGrowth.Equal(w.LastGrowth) {
			t.Fatalf("watch %d diverged:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestCheckpointBytesDeterministic: the same engine checkpointed twice
// encodes to the same bytes. Nearly every synth transaction carries a
// multi-key header, so an encoder that followed Go's randomized map order
// would differ between the two calls.
func TestCheckpointBytesDeterministic(t *testing.T) {
	e := New(Config{Shards: 2, RedirectThreshold: 3}, vecScorer{})
	e.ProcessAll(corpusStream(synth.Config{Seed: 1, Infections: 10, Benign: 10}))
	first, second := e.AppendCheckpoint(nil), e.AppendCheckpoint(nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("two checkpoints of one engine differ (%d vs %d bytes)", len(first), len(second))
	}
}

// TestCheckpointFileRoundTrip exercises the atomic file path and the
// info reader on disk.
func TestCheckpointFileRoundTrip(t *testing.T) {
	cfg := Config{Shards: 1, RedirectThreshold: 3}
	s := New(cfg, constScorer(0.9))
	s.ProcessAll(infectionStream())

	path := filepath.Join(t.TempDir(), "state.dmcp")
	if err := s.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	info, err := ReadCheckpointInfoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Clusters != 1 || info.Watching != 1 || info.Shards != 1 {
		t.Fatalf("info %+v", info)
	}

	restored := New(cfg, constScorer(0.9))
	if n, err := restored.RestoreCheckpointFile(path); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	// The alerted flag survives: the restored watch only re-alerts on a
	// download, exactly like the original.
	growth := mkTx("d.evil", "/beacon", "GET", 200, "text/html", 512, "", time.Second)
	if alerts := restored.Process(growth); len(alerts) != 0 {
		t.Fatalf("restored alerted watch re-fired on non-download growth: %+v", alerts)
	}
}

// TestCheckpointRejectsDamage pins the validation screens: bit flips,
// truncation, bad magic, and a shard-count mismatch are all rejected with
// named errors before any cluster is restored.
func TestCheckpointRejectsDamage(t *testing.T) {
	s := New(Config{Shards: 2, RedirectThreshold: 3}, constScorer(0.9))
	s.ProcessAll(interleaved(infectionStream()))
	data := s.AppendCheckpoint(nil)

	fresh := func() *Engine { return New(Config{Shards: 2, RedirectThreshold: 3}, constScorer(0.9)) }

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-3] ^= 0x01
	if _, err := fresh().RestoreCheckpoint(flipped); err == nil {
		t.Fatal("bit-flipped checkpoint accepted")
	}
	if _, err := fresh().RestoreCheckpoint(data[:len(data)/2]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if _, err := fresh().RestoreCheckpoint([]byte("DMFB----------------")); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, err := New(Config{Shards: 3}, constScorer(0.9)).RestoreCheckpoint(data); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	// A non-empty engine must refuse to restore (cluster IDs would collide).
	busy := fresh()
	busy.ProcessAll(infectionStream())
	if _, err := busy.RestoreCheckpoint(data); err == nil {
		t.Fatal("restore into a non-empty engine accepted")
	}
}

// TestMarkAlertedDedup covers journal replay during recovery: an alert
// the pre-crash process raised after the last checkpoint is marked on
// the restored cluster, so the watch's next growth does not re-fire it.
func TestMarkAlertedDedup(t *testing.T) {
	// Arm a watch below the alert threshold, checkpoint, then restore into
	// an engine whose serving model scores hot: without MarkAlerted the
	// first growth would fire the alert the pre-crash process already
	// journaled.
	cfg := Config{Shards: 1, RedirectThreshold: 3}
	cold := New(cfg, constScorer(0.4))
	cold.ProcessAll(infectionStream())
	if cold.Stats().Alerts != 0 {
		t.Fatal("setup: watch must arm without alerting")
	}
	data := cold.AppendCheckpoint(nil)

	growth := mkTx("d.evil", "/beacon", "GET", 200, "text/html", 512, "", time.Second)

	// Control: restored without the journal mark, the growth alerts (the
	// const scorer's CRC matches the serving model, so the pin re-attaches
	// to the hot scorer).
	control := New(cfg, constScorer(0.9))
	if _, err := control.RestoreCheckpoint(data); err != nil {
		t.Fatal(err)
	}
	if alerts := control.Process(growth); len(alerts) != 1 {
		t.Fatalf("control growth alerts = %d, want 1", len(alerts))
	}

	// Recovery path: MarkAlerted from the replayed journal suppresses the
	// duplicate.
	recovered := New(cfg, constScorer(0.9))
	if _, err := recovered.RestoreCheckpoint(data); err != nil {
		t.Fatal(err)
	}
	w := recovered.Watched()
	if len(w) != 1 {
		t.Fatalf("restored watches = %d, want 1", len(w))
	}
	if !recovered.MarkAlerted(w[0].Client, w[0].ClusterID) {
		t.Fatal("MarkAlerted did not find the restored cluster")
	}
	if recovered.MarkAlerted(netip.MustParseAddr("203.0.113.9"), 999) {
		t.Fatal("MarkAlerted invented a cluster")
	}
	if alerts := recovered.Process(growth); len(alerts) != 0 {
		t.Fatalf("marked watch re-fired the journaled alert: %+v", alerts)
	}
}

// oneClusterCheckpoint is a one-shard, one-cluster DMCP artifact with a
// valid CRC whose cluster claims txCount transactions encoded in txs. With
// no txs it is 84 bytes long.
func oneClusterCheckpoint(txCount uint32, txs []byte) []byte {
	le := binary.LittleEndian
	b := append([]byte(checkpointMagic), make([]byte, checkpointHdrLen-len(checkpointMagic))...)
	le.PutUint32(b[4:], checkpointVersion)
	b = le.AppendUint64(b, 1) // model generation
	b = le.AppendUint32(b, 0) // model CRC
	b = le.AppendUint32(b, 1) // shards
	b = le.AppendUint64(b, 0) // txSeen
	b = le.AppendUint32(b, 1) // clusters
	b = le.AppendUint64(b, 0) // cluster ID
	b = appendAddr(b, netip.MustParseAddr("10.0.0.1"))
	b = append(b, ckptWatching, 0)
	b = le.AppendUint64(b, 0) // pinned generation
	b = le.AppendUint32(b, 0) // pinned CRC
	b = appendTime(b, time.Time{})
	b = le.AppendUint32(b, txCount)
	b = append(b, txs...)
	return resealCheckpoint(b)
}

// resealCheckpoint stores the CRC of b's body in its header.
func resealCheckpoint(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[8:], crc32.ChecksumIEEE(b[checkpointHdrLen:]))
	return b
}

// hostileRequest is a transaction cut off after its request header's key
// count, which claims keys entries.
func hostileRequest(keys uint32) []byte {
	b := appendAddr(nil, netip.MustParseAddr("10.0.0.1"))
	b = appendAddr(b, netip.MustParseAddr("10.0.0.2"))
	b = binary.LittleEndian.AppendUint16(b, 1234)
	b = binary.LittleEndian.AppendUint16(b, 80)
	b = appendString(b, "GET")
	b = appendString(b, "/")
	b = appendString(b, "h.test")
	return binary.LittleEndian.AppendUint32(b, keys)
}

// TestHostileCheckpointCountsAllocateNothing is the regression test for
// count fields that sized allocations before any bytes backed them: an
// 84-byte checkpoint claiming 2^24 transactions made ReadCheckpointInfo
// allocate 3.7 GB before it reported the truncation. A count no bytes back
// must fail as truncated having cost next to nothing, in both readers.
func TestHostileCheckpointCountsAllocateNothing(t *testing.T) {
	const many = 1 << 20
	hostileValues := binary.LittleEndian.AppendUint32(appendString(hostileRequest(1), "X-Key"), many)
	cases := map[string][]byte{
		"transactions":  oneClusterCheckpoint(many, nil),
		"header keys":   oneClusterCheckpoint(1, hostileRequest(many)),
		"header values": oneClusterCheckpoint(1, hostileValues),
	}
	for name, data := range cases {
		for op, read := range map[string]func() error{
			"info":    func() error { _, err := ReadCheckpointInfo(data); return err },
			"restore": func() error { _, err := New(Config{Shards: 1}, constScorer(0.9)).RestoreCheckpoint(data); return err },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s/%s: %d-byte hostile checkpoint accepted", name, op, len(data))
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%s/%s: reading %d bytes allocated %d", name, op, len(data), got)
			}
		}
	}
}

// FuzzReadCheckpoint drives the DMCP reader with arbitrary bodies, resealed
// so mutations reach the parser rather than stop at the CRC screen
// (TestCheckpointRejectsDamage covers that). No count field may size an
// allocation: reading stays under a constant plus 64 bytes per input byte,
// about three times what the densest encoding (transactions of one-key
// headers) costs to decode. Whatever restores must restore without
// panicking, as many clusters as the info reader counts.
func FuzzReadCheckpoint(f *testing.F) {
	live := New(Config{Shards: 2, RedirectThreshold: 3}, constScorer(0.9))
	live.ProcessAll(interleaved(infectionStream()))
	f.Add(live.AppendCheckpoint(nil))
	tiny := appendTx(nil, &httpstream.Transaction{ReqHdr: http.Header{"": nil}, RespHdr: http.Header{"": nil}})
	f.Add(oneClusterCheckpoint(64, bytes.Repeat(tiny, 64)))
	f.Add(oneClusterCheckpoint(1<<20, nil))
	f.Add(oneClusterCheckpoint(1, hostileRequest(1<<20)))
	f.Add([]byte(checkpointMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= checkpointHdrLen {
			data = resealCheckpoint(bytes.Clone(data))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		info, err := ReadCheckpointInfo(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(data)); got > limit {
			t.Fatalf("reading %d bytes allocated %d, want at most %d", len(data), got, limit)
		}
		if err != nil || info.Shards < 1 || info.Shards > 8 {
			return
		}
		n, err := New(Config{Shards: info.Shards}, constScorer(0.9)).RestoreCheckpoint(data)
		if err == nil && n != info.Clusters {
			t.Fatalf("restored %d clusters, info counts %d", n, info.Clusters)
		}
	})
}
