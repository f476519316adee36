package detector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
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

// v2Fixture is testdata/v2.dmcp, a DMCP version 2 artifact written by
// AppendCheckpoint (commit 89c5b05) of a Config{Shards: 2,
// RedirectThreshold: 3} engine scoring with vecScorer{} that had
// processed v2FixtureStream()[:v2FixtureCut]. At the cut it holds nine
// clusters, two of them watched and one alerted, whose histories include
// HTML bodies with sniffable redirects. It pins the format: the encoder
// must keep writing these bytes for this state.
const (
	v2Fixture    = "testdata/v2.dmcp"
	v2FixtureCut = 203
)

func v2FixtureStream() []httpstream.Transaction {
	return corpusStream(synth.Config{Seed: 1, Infections: 8, Benign: 4})
}

// journaled returns a fixture-config engine whose journal writes to buf.
func journaled(buf *bytes.Buffer) *Engine {
	return New(Config{Shards: 2, RedirectThreshold: 3, Journal: obs.NewJournalWriter(buf)}, vecScorer{})
}

// TestRestoreV2Fixture: the encoder still writes the checked-in artifact
// byte for byte for the state it was taken of, and the engine restored
// from it continues the stream as the uninterrupted run does — same
// alerts, journal records and Stats delta.
func TestRestoreV2Fixture(t *testing.T) {
	data, err := os.ReadFile(v2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	txs := v2FixtureStream()
	head, tail := txs[:v2FixtureCut], txs[v2FixtureCut:]
	info, err := ReadCheckpointInfo(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.Shards != 2 || info.Clusters != 9 || info.Watching != 2 || info.TxSeen != int64(len(head)) {
		t.Fatalf("fixture info %+v, want version 2, 2 shards, 9 clusters, 2 watching, %d transactions seen", info, len(head))
	}

	var unJ, reJ bytes.Buffer
	un := journaled(&unJ)
	un.ProcessAll(head)
	unHead, unBefore := unJ.Len(), un.Stats()
	if got := un.AppendCheckpoint(nil); !bytes.Equal(got, data) {
		t.Fatalf("the engine checkpoints the fixture's state to %d bytes unlike the fixture's %d", len(got), len(data))
	}
	re := journaled(&reJ)
	if n, err := re.RestoreCheckpoint(data); err != nil || n != info.Clusters {
		t.Fatalf("restore: %d clusters, %v; want %d", n, err, info.Clusters)
	}
	alerted, sniffed := 0, 0
	for _, sh := range re.shards {
		for _, c := range sh.st.clusters {
			if c.alerted {
				alerted++
			}
			sniffed += len(c.hosts.Sniffs)
		}
	}
	if alerted != 1 || sniffed == 0 {
		t.Fatalf("the restored engine holds %d alerted clusters and %d sniffed redirect targets, want 1 and some", alerted, sniffed)
	}
	restored := re.Stats()

	want := un.ProcessAll(tail)
	if len(want) == 0 {
		t.Fatal("the tail raised no alerts; the differential is vacuous")
	}
	requireSameAlerts(t, "fixture restore", re.ProcessAll(tail), want)
	wantJ := unJ.Bytes()[unHead:]
	if len(wantJ) == 0 || !bytes.Equal(reJ.Bytes(), wantJ) {
		t.Fatalf("tail journals differ:\nuninterrupted: %s\nrestored:      %s", wantJ, reJ.Bytes())
	}
	if got, want := statsDelta(re.Stats(), restored), statsDelta(un.Stats(), unBefore); got != want {
		t.Fatalf("tail Stats delta: restored %+v, uninterrupted %+v", got, want)
	}
}

// statsDelta is what the counters of a moved from b.
func statsDelta(a, b Stats) Stats {
	return Stats{
		Transactions: a.Transactions - b.Transactions, Weeded: a.Weeded - b.Weeded,
		Clusters: a.Clusters - b.Clusters, Evicted: a.Evicted - b.Evicted,
		CluesFired: a.CluesFired - b.CluesFired, Classifications: a.Classifications - b.Classifications,
		Alerts: a.Alerts - b.Alerts, Dropped: a.Dropped - b.Dropped, Rebuilds: a.Rebuilds - b.Rebuilds,
		Panics: a.Panics - b.Panics, Quarantined: a.Quarantined - b.Quarantined,
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
	// The mismatch names the way out: the engine's size is GOMAXPROCS.
	if _, err := New(Config{Shards: 3}, constScorer(0.9)).RestoreCheckpoint(data); err == nil {
		t.Fatal("shard-count mismatch accepted")
	} else if !strings.Contains(err.Error(), "GOMAXPROCS=2") {
		t.Fatalf("shard-count mismatch error %q does not name GOMAXPROCS=2", err)
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
// valid CRC whose cluster's host table and history are body.
func oneClusterCheckpoint(body []byte) []byte {
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
	return resealCheckpoint(append(b, body...))
}

// resealCheckpoint stores the CRC of b's body in its header.
func resealCheckpoint(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[8:], crc32.ChecksumIEEE(b[checkpointHdrLen:]))
	return b
}

// hostileCheckpoints are one-cluster artifacts whose host-name, sniffed-host
// or record count claims 2^20 entries that no bytes back.
func hostileCheckpoints() map[string][]byte {
	const many = 1 << 20
	le := binary.LittleEndian
	return map[string][]byte{
		"names":   oneClusterCheckpoint(le.AppendUint32(nil, many)),
		"sniffs":  oneClusterCheckpoint(le.AppendUint32(le.AppendUint32(nil, 0), many)),
		"records": oneClusterCheckpoint(le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, 0), 0), many)),
	}
}

// v1Header is the 16-byte header of a DMCP version 1 artifact with an
// empty body, whose CRC (zero) it holds.
func v1Header() []byte {
	b := append([]byte(checkpointMagic), make([]byte, checkpointHdrLen-len(checkpointMagic))...)
	binary.LittleEndian.PutUint32(b[4:], 1)
	return b
}

// TestCheckpointReadersRefuseAlike: the info view and restore are one
// walk of the artifact, so what one refuses the other refuses too — a
// checkpoint resealed with one trailing byte, one of zero shards, and a
// version 1 artifact, which is refused at the header with an error naming
// the version found, the version read, and the cold start.
func TestCheckpointReadersRefuseAlike(t *testing.T) {
	s := New(Config{Shards: 2, RedirectThreshold: 3}, constScorer(0.9))
	s.ProcessAll(interleaved(infectionStream()))
	cases := map[string]struct {
		data []byte
		want string
	}{
		"trailing byte": {resealCheckpoint(append(s.AppendCheckpoint(nil), 0)), "1 trailing bytes"},
		"zero shards":   {resealCheckpoint(binary.LittleEndian.AppendUint32(oneClusterCheckpoint(nil)[:checkpointHdrLen+12], 0)), "zero shards"},
		"version 1":     {v1Header(), "format version 1, this build reads only version 2 (delete the file to cold-start)"},
	}
	for name, tc := range cases {
		if _, err := ReadCheckpointInfo(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: info view: %v, want an error containing %q", name, err, tc.want)
		}
		if _, err := New(Config{Shards: 2}, constScorer(0.9)).RestoreCheckpoint(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore: %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestHostileCheckpointCountsAllocateNothing is the regression test for
// count fields that sized allocations before any bytes backed them (an
// 84-byte checkpoint once made ReadCheckpointInfo allocate 3.7 GB before
// it reported the truncation). A count no bytes back must fail as
// truncated having cost next to nothing, in both readers.
func TestHostileCheckpointCountsAllocateNothing(t *testing.T) {
	for name, data := range hostileCheckpoints() {
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
// allocation: the info view stays under a constant plus 64 bytes per
// input byte, about twice what the densest encoding costs to decode — a
// host table of distinct one- and two-byte names, whose interning took 27
// to 32 bytes per input byte at 256 to 65 536 names (go1.24, amd64;
// empty shards or clusters take 3 to 10, records 1). The info view and
// restore are one walk, so on an artifact whose shard count an engine
// can take they succeed or fail together, and what restores restores
// without panicking, as many clusters as the info view counts.
func FuzzReadCheckpoint(f *testing.F) {
	live := New(Config{Shards: 2, RedirectThreshold: 3}, constScorer(0.9))
	live.ProcessAll(interleaved(infectionStream()))
	f.Add(live.AppendCheckpoint(nil))
	hostile := hostileCheckpoints()
	f.Add(hostile["names"])
	f.Add(hostile["sniffs"])
	f.Add(hostile["records"])
	f.Add([]byte(checkpointMagic))
	if fixture, err := os.ReadFile(v2Fixture); err == nil {
		f.Add(fixture)
	}
	tinyV2 := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	tinyV2.ProcessAll(infectionStream()[:3])
	f.Add(tinyV2.AppendCheckpoint(nil))
	f.Add(v1Header())

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
		shards := 1 // too short to hold a shard count: both readers fail
		if len(data) >= checkpointHdrLen+16 {
			shards = int(binary.LittleEndian.Uint32(data[checkpointHdrLen+12:]))
		}
		if shards < 1 || shards > 8 {
			return
		}
		n, rerr := New(Config{Shards: shards}, constScorer(0.9)).RestoreCheckpoint(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("the readers disagree: info view %v, restore %v", err, rerr)
		}
		if err == nil && n != info.Clusters {
			t.Fatalf("restored %d clusters, info counts %d", n, info.Clusters)
		}
	})
}
