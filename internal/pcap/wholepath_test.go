package pcap_test

// The whole-path differential: dynaminer.ReadPCAP — record reader,
// conversation-scoped Assembler, extraction on close, watermark release,
// one final sort —
// against the capture path as it stood (reassembly_ref_test.go: a buffer
// per packet, a whole-capture assembler, ExtractAll), reflect.DeepEqual on
// the ordered transactions, over a 55-episode synthetic corpus written as
// classic pcap and as pcapng and disturbed the ways a real capture is.
//
// Two kinds of capture are left out because the engine differs from the
// reference there on purpose, and have expected-value tests of their own:
// a reused 4-tuple (TestReusedTupleKeepsBothConnections: the reference
// loses the second connection) and new bytes for a conversation that has
// closed (TestLateSegmentsAfterCloseAreDropped). The disturbances below
// therefore never move a SYN and never add bytes past a FIN that are not
// already in the stream.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"dynaminer"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
	"dynaminer/internal/pcap"
	"dynaminer/internal/synth"
)

func reference(r io.Reader) ([]dynaminer.Transaction, error) {
	pkts, err := pcap.RefReadAllAuto(r)
	if err != nil {
		return nil, err
	}
	return httpstream.ExtractAll(pcap.RefAssembleStreams(pkts)), nil
}

// episodePackets renders an episode's conversations and merges them by
// timestamp, as Episode.WritePCAP does.
func episodePackets(t testing.TB, ep *synth.Episode) []pcap.Packet {
	t.Helper()
	var all []pcap.Packet
	for _, c := range ep.Conversations() {
		pkts, err := pcap.BuildConversation(c)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, pkts...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Timestamp.Before(all[j].Timestamp) })
	return all
}

type packetWriter interface {
	WritePacket(pcap.Packet) error
	Flush() error
}

var formats = map[string]func(io.Writer) packetWriter{
	"pcap":   func(w io.Writer) packetWriter { return pcap.NewWriter(w) },
	"pcapng": func(w io.Writer) packetWriter { return pcap.NewNGWriter(w) },
}

func render(t testing.TB, format string, pkts []pcap.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := formats[format](&buf)
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frames decodes every packet (the corpus is all TCP).
func frames(t testing.TB, pkts []pcap.Packet) []*pcap.Frame {
	t.Helper()
	out := make([]*pcap.Frame, len(pkts))
	for i, p := range pkts {
		f, err := pcap.DecodeFrame(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = f
	}
	return out
}

func isData(f *pcap.Frame) bool {
	return len(f.Payload) > 0 && f.Flags&(pcap.FlagSYN|pcap.FlagFIN) == 0
}

// shuffled permutes each direction's data segments among the places they
// hold in the capture, four at a time.
func shuffled(t testing.TB, pkts []pcap.Packet, rng *rand.Rand) []pcap.Packet {
	out := slices.Clone(pkts)
	places := make(map[pcap.FlowKey][]int)
	for i, f := range frames(t, pkts) {
		if isData(f) {
			places[f.Key()] = append(places[f.Key()], i)
		}
	}
	keys := make([]pcap.FlowKey, 0, len(places))
	for k := range places {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		at := places[k]
		for lo := 0; lo < len(at); lo += 4 {
			window := at[lo:min(lo+4, len(at))]
			rng.Shuffle(len(window), func(i, j int) {
				out[window[i]], out[window[j]] = out[window[j]], out[window[i]]
			})
		}
	}
	return out
}

// duplicated delivers a third of the data segments a second time, up to
// six packets later — some of them after their conversation has closed.
func duplicated(t testing.TB, pkts []pcap.Packet, rng *rand.Rand) []pcap.Packet {
	fs := frames(t, pkts)
	again := make(map[int][]pcap.Packet) // by the index they follow
	for i, f := range fs {
		if isData(f) && rng.Intn(3) == 0 {
			at := min(i+rng.Intn(6), len(pkts)-1)
			again[at] = append(again[at], pkts[i])
		}
	}
	var out []pcap.Packet
	for i, p := range pkts {
		out = append(out, p)
		out = append(out, again[i]...)
	}
	return out
}

// overlapped follows a third of the data segments with a forged
// retransmission that starts halfway into the segment, runs as long again
// (so it also covers bytes the next segment will bring) and carries other
// bytes. The final segment of a direction is only re-sent in part, so that
// nothing lands past the FIN, and nothing is forged once a conversation has
// sent a FIN: it may have closed, and what reaches it then is dropped.
func overlapped(t testing.TB, pkts []pcap.Packet, rng *rand.Rand) []pcap.Packet {
	fs := frames(t, pkts)
	final := make(map[pcap.FlowKey]uint32) // highest data sequence number per direction
	for _, f := range fs {
		if isData(f) {
			final[f.Key()] = max(final[f.Key()], f.Seq)
		}
	}
	finished := make(map[pcap.FlowKey]bool)
	var out []pcap.Packet
	for i, p := range pkts {
		out = append(out, p)
		f := fs[i]
		conv, _ := f.Key().Canonical()
		if f.Flags&pcap.FlagFIN != 0 {
			finished[conv] = true
		}
		if !isData(f) || finished[conv] || len(f.Payload) < 8 || rng.Intn(3) != 0 {
			continue
		}
		half := len(f.Payload) / 2
		forged := *f
		forged.Seq += uint32(half)
		forged.Payload = bytes.Repeat([]byte{'Z'}, len(f.Payload))
		if f.Seq == final[f.Key()] {
			forged.Payload = forged.Payload[:half]
		}
		data, err := pcap.EncodeFrame(&forged)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pcap.Packet{Timestamp: p.Timestamp, Data: data})
	}
	return out
}

// finFirst delivers each conversation's last data segment after both of its
// FINs.
func finFirst(t testing.TB, pkts []pcap.Packet, _ *rand.Rand) []pcap.Packet {
	fs := frames(t, pkts)
	lastData := make(map[pcap.FlowKey]int)
	lastFIN := make(map[pcap.FlowKey]int)
	for i, f := range fs {
		conv, _ := f.Key().Canonical()
		switch {
		case isData(f):
			lastData[conv] = i
		case f.Flags&pcap.FlagFIN != 0:
			lastFIN[conv] = i
		}
	}
	after := make(map[int]int) // FIN index -> the data index delivered after it
	moved := make(map[int]bool)
	for conv, d := range lastData {
		if fin, ok := lastFIN[conv]; ok && d < fin {
			after[fin], moved[d] = d, true
		}
	}
	var out []pcap.Packet
	for i, p := range pkts {
		if !moved[i] {
			out = append(out, p)
		}
		if d, ok := after[i]; ok {
			out = append(out, pkts[d])
		}
	}
	return out
}

// compare reads capture both ways and fails on any difference.
func compare(t *testing.T, what string, capture []byte, wrap func(io.Reader) io.Reader) (txs int) {
	t.Helper()
	got, gotErr := dynaminer.ReadPCAP(wrap(bytes.NewReader(capture)))
	want, wantErr := reference(wrap(bytes.NewReader(capture)))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: ReadPCAP error %v, reference error %v", what, gotErr, wantErr)
	}
	if gotErr != nil && got != nil {
		t.Fatalf("%s: %d transactions returned beside the error %v", what, len(got), gotErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: ReadPCAP found %d transactions, the reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: transaction %d of %d differs:\nReadPCAP:  %s\nreference: %s", what, i, len(got), describe(&got[i]), describe(&want[i]))
		}
	}
	return len(got)
}

// describe renders what two transactions can differ in without their
// bodies filling the screen.
func describe(tx *dynaminer.Transaction) string {
	body := tx.Body
	tx.Body = nil
	defer func() { tx.Body = body }()
	return fmt.Sprintf("%+v body %d bytes, fnv %x", *tx, len(body), fnv32(body))
}

func fnv32(b []byte) uint32 {
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}

func plain(r io.Reader) io.Reader { return r }

func corpus() []synth.Episode {
	return synth.GenerateCorpus(synth.Config{Seed: 59, Infections: 30, Benign: 25})
}

func TestReadPCAPMatchesReferencePath(t *testing.T) {
	disturbances := []struct {
		name  string
		apply func(testing.TB, []pcap.Packet, *rand.Rand) []pcap.Packet
	}{
		{"in order", func(_ testing.TB, p []pcap.Packet, _ *rand.Rand) []pcap.Packet { return p }},
		{"shuffled", shuffled},
		{"duplicated", duplicated},
		{"overlapped", overlapped},
		{"FIN first", finFirst},
		{"shuffled, duplicated, FIN first, overlapped", func(t testing.TB, p []pcap.Packet, rng *rand.Rand) []pcap.Packet {
			return overlapped(t, finFirst(t, duplicated(t, shuffled(t, p, rng), rng), rng), rng)
		}},
	}
	episodes := corpus()
	if len(episodes) != 55 {
		t.Fatalf("%d episodes, want 55", len(episodes))
	}
	total := 0
	for e := range episodes {
		pkts := episodePackets(t, &episodes[e])
		for format := range formats {
			rng := rand.New(rand.NewSource(int64(e)))
			for _, d := range disturbances {
				what := episodes[e].Family + " " + format + " " + d.name
				n := compare(t, what, render(t, format, d.apply(t, pkts, rng)), plain)
				if d.name == "in order" && n != len(episodes[e].Txs) {
					t.Fatalf("%s: %d transactions, the episode has %d", what, n, len(episodes[e].Txs))
				}
				total += n
			}
			// Cut after every k-th packet: a conversation open at the cut is
			// extracted as far as it got, in both paths alike.
			for k := 0; k < len(pkts); k += len(pkts)/6 + 1 {
				total += compare(t, episodes[e].Family+" "+format+" truncated", render(t, format, pkts[:k]), plain)
			}
			capture := render(t, format, pkts)
			compare(t, episodes[e].Family+" "+format+" one byte per Read", capture, iotest.OneByteReader)
			// A reader that fails mid-record: the same error from both, and
			// no transactions beside it.
			boom := errors.New("capture source failed")
			for _, cut := range []int{len(capture) / 3, len(capture) - 5} {
				compare(t, episodes[e].Family+" "+format+" failing reader", capture, func(r io.Reader) io.Reader {
					return io.MultiReader(io.LimitReader(r, int64(cut)), iotest.ErrReader(boom))
				})
			}
		}
	}
	if total == 0 {
		t.Fatal("the differential compared no transactions")
	}
}

// TestCaptureFidelity: an episode written as classic pcap or as pcapng and
// read back gives the same 37-vector, bit for bit, as the episode's own
// transactions. The writers once stored microseconds, and the synthetic
// corpus's nanosecond request times came back truncated: Duration and
// Avg-Inter-Transact-Time moved.
func TestCaptureFidelity(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 1, Infections: 100, Benign: 100})
	if len(episodes) != 200 {
		t.Fatalf("%d episodes, want 200", len(episodes))
	}
	for e := range episodes {
		ep := &episodes[e]
		direct := dynaminer.ExtractFeatures(dynaminer.BuildWCG(ep.Txs))
		pkts := episodePackets(t, ep)
		for _, format := range []string{"pcap", "pcapng"} {
			txs, err := dynaminer.ReadPCAP(bytes.NewReader(render(t, format, pkts)))
			if err != nil {
				t.Fatalf("episode %d via %s: %v", e, format, err)
			}
			if len(txs) != len(ep.Txs) {
				t.Fatalf("episode %d via %s: %d transactions, the episode has %d", e, format, len(txs), len(ep.Txs))
			}
			got := dynaminer.ExtractFeatures(dynaminer.BuildWCG(txs))
			for i := range direct {
				if math.Float64bits(got[i]) != math.Float64bits(direct[i]) {
					t.Fatalf("episode %d (%s) via %s: feature %d %s = %v, direct %v",
						e, ep.Family, format, i, dynaminer.FeatureName(i), got[i], direct[i])
				}
			}
		}
	}
}

// corpusPackets renders every episode under a client address of its own and
// merges the packets by timestamp: one capture of interleaved clients.
func corpusPackets(t testing.TB, episodes []synth.Episode) []pcap.Packet {
	t.Helper()
	var pkts []pcap.Packet
	for e := range episodes {
		client := netip.AddrFrom4([4]byte{10, 40, 0, byte(1 + e)})
		for i := range episodes[e].Txs {
			episodes[e].Txs[i].ClientIP = client
		}
		pkts = append(pkts, episodePackets(t, &episodes[e])...)
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Timestamp.Before(pkts[j].Timestamp) })
	return pkts
}

// TestReadPCAPAllocationIsOneValued is memory gate (b): what ReadPCAP
// allocates does not depend on what an earlier call left in a pool. The
// capture path once parked its capture-sized arenas in a sync.Pool, so a
// call after a garbage collection allocated twice the capture more than a
// call that found them — the benchmark's alloc_kb_per_tx read 51, 71 or
// 90 kB by when the collector last ran. Now a call right after two
// collections (every sync.Pool emptied) is within a tenth of a warm one.
func TestReadPCAPAllocationIsOneValued(t *testing.T) {
	capture := render(t, "pcap", corpusPackets(t, corpus()))
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if txs, err := dynaminer.ReadPCAP(bytes.NewReader(capture)); err != nil || len(txs) == 0 {
			t.Fatalf("%d transactions, error %v", len(txs), err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated()
	warm := allocated()
	runtime.GC()
	runtime.GC()
	cold := allocated()
	t.Logf("%d-byte capture: %d bytes allocated warm, %d after two collections", len(capture), warm, cold)
	if diff := math.Abs(float64(cold) - float64(warm)); diff > 0.1*float64(warm) {
		t.Fatalf("ReadPCAP allocated %d bytes warm and %d after two collections: more than a tenth apart", warm, cold)
	}
}

// monitorModel is the classifier the ProcessPCAP tests replay captures
// through, trained once per test binary on the 55-episode corpus.
var monitorModel = sync.OnceValues(func() (*dynaminer.Classifier, error) {
	return dynaminer.TrainForMonitoring(corpus(), dynaminer.TrainConfig{Seed: 5})
})

func trainedModel(t testing.TB) *dynaminer.Classifier {
	t.Helper()
	clf, err := monitorModel()
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// TestProcessPCAPMatchesReferencePath replays one capture of all 55
// episodes (a client each, interleaved by time) through Monitor.ProcessPCAP
// — transactions classified as the capture scan releases them — and the
// reference path's transactions through ProcessAll: the same alerts in the
// same order, the same Stats, the same journal, at one shard and at two,
// in order and disturbed the ways a real capture is.
func TestProcessPCAPMatchesReferencePath(t *testing.T) {
	clf := trainedModel(t)
	pkts := corpusPackets(t, corpus())
	rng := rand.New(rand.NewSource(1))
	captures := []struct {
		name    string
		capture []byte
	}{
		{"pcap, in order", render(t, "pcap", pkts)},
		{"pcapng, shuffled and duplicated", render(t, "pcapng", duplicated(t, shuffled(t, pkts, rng), rng))},
		{"pcap, overlapped", render(t, "pcap", overlapped(t, pkts, rng))},
		{"pcapng, FIN before the last segment", render(t, "pcapng", finFirst(t, pkts, rng))},
		{"pcap, truncated at a packet boundary", render(t, "pcap", pkts[:len(pkts)*2/3])},
	}
	for _, c := range captures {
		name, capture := c.name, c.capture
		ref, err := reference(bytes.NewReader(capture))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2} {
			run := func(feed func(*dynaminer.Monitor) ([]dynaminer.Alert, error)) ([]dynaminer.Alert, dynaminer.MonitorStats, []string) {
				var journal bytes.Buffer
				m := dynaminer.NewMonitor(dynaminer.MonitorConfig{RedirectThreshold: 1, Shards: shards, Journal: obs.NewJournalWriter(&journal)}, clf)
				alerts, err := feed(m)
				if err != nil {
					t.Fatal(err)
				}
				// Two shards append to the journal as they go: the records
				// are the same, their order is not.
				lines := strings.Split(strings.TrimSpace(journal.String()), "\n")
				sort.Strings(lines)
				return alerts, m.Stats(), lines
			}
			got, gotStats, gotJournal := run(func(m *dynaminer.Monitor) ([]dynaminer.Alert, error) {
				return m.ProcessPCAP(bytes.NewReader(capture))
			})
			want, wantStats, wantJournal := run(func(m *dynaminer.Monitor) ([]dynaminer.Alert, error) {
				return m.ProcessAll(ref), nil
			})
			if len(want) == 0 || wantStats.Transactions != len(ref) {
				t.Fatalf("%s, %d shards: %d alerts over %d of %d transactions: the replay exercised nothing", name, shards, len(want), wantStats.Transactions, len(ref))
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %d shards: ProcessPCAP raised %d alerts, the reference path %d", name, shards, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Client != w.Client || !g.Time.Equal(w.Time) || g.ClusterID != w.ClusterID || g.TriggerHost != w.TriggerHost ||
					g.TriggerPayload != w.TriggerPayload || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Fatalf("%s, %d shards: alert %d differs: %+v against %+v", name, shards, i, g, w)
				}
			}
			if gotStats != wantStats {
				t.Fatalf("%s, %d shards: Stats differ:\nProcessPCAP: %+v\nreference:   %+v", name, shards, gotStats, wantStats)
			}
			if !slices.Equal(gotJournal, wantJournal) {
				t.Fatalf("%s, %d shards: journals differ (%d records against %d)", name, shards, len(gotJournal), len(wantJournal))
			}
		}
	}
}

// newMonitor is a monitor of the given shards over the trained model whose
// journal goes to w.
func newMonitor(t testing.TB, shards int, w io.Writer) *dynaminer.Monitor {
	return dynaminer.NewMonitor(dynaminer.MonitorConfig{RedirectThreshold: 1, Shards: shards, Journal: obs.NewJournalWriter(w)}, trainedModel(t))
}

// firstRecord is a journal sink that closes arrived on its first record.
// The journal writes under its own lock, one record per Write.
type firstRecord struct {
	arrived chan struct{}
	records int
}

func (f *firstRecord) Write(p []byte) (int, error) {
	if f.records++; f.records == 1 {
		close(f.arrived)
	}
	return len(p), nil
}

// TestProcessPCAPJournalsBeforeEOF is the streaming gate: ProcessPCAP reads
// the first half of a capture from a pipe, and the journal must receive a
// record before the second half is written. A monitor that reads the
// capture to its end before classifying never journals and fails here.
func TestProcessPCAPJournalsBeforeEOF(t *testing.T) {
	pkts := corpusPackets(t, corpus())
	capture := render(t, "pcap", pkts)
	half := len(render(t, "pcap", pkts[:len(pkts)/2])) // a record boundary
	sink := &firstRecord{arrived: make(chan struct{})}
	m := newMonitor(t, 2, sink)
	r, w := io.Pipe()
	type result struct {
		alerts []dynaminer.Alert
		err    error
	}
	done := make(chan result, 1)
	go func() {
		alerts, err := m.ProcessPCAP(r)
		done <- result{alerts, err}
	}()
	if _, err := w.Write(capture[:half]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sink.arrived:
	case <-time.After(30 * time.Second):
		w.CloseWithError(errors.New("test timed out"))
		t.Fatal("no journal record 30 s after the first half of the capture was read: verdicts wait for the end of the capture")
	}
	if _, err := w.Write(capture[half:]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	want, err := newMonitor(t, 2, io.Discard).ProcessPCAP(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.alerts) != len(want) || sink.records != len(want) {
		t.Fatalf("through the pipe: %d alerts, %d journal records; in one piece: %d alerts", len(res.alerts), sink.records, len(want))
	}
}

// alertKey names an alert, or the journal record of one.
func alertKey(client string, cluster int, at time.Time) string {
	return fmt.Sprintf("%s|%d|%d", client, cluster, at.UnixNano())
}

// TestProcessPCAPReturnsAlertsBesideError: when a capture fails mid-read,
// the transactions released before the failure have been classified and
// journaled. ProcessPCAP returns their alerts with the error — a prefix of
// the whole capture's alerts, score bits included — and the journal holds
// exactly those, at one shard and at two.
func TestProcessPCAPReturnsAlertsBesideError(t *testing.T) {
	pkts := corpusPackets(t, corpus())
	capture := render(t, "pcap", pkts)
	boom := errors.New("capture source failed")
	someButNotAll := false
	for _, shards := range []int{1, 2} {
		full, err := newMonitor(t, shards, io.Discard).ProcessPCAP(bytes.NewReader(capture))
		if err != nil || len(full) == 0 {
			t.Fatalf("whole capture: %d alerts, error %v", len(full), err)
		}
		for _, k := range []int{len(pkts) / 2, len(pkts) * 3 / 4, len(pkts) - 2} {
			boundary := len(render(t, "pcap", pkts[:k]))
			readers := map[string]io.Reader{
				// Cut inside the record header that follows the boundary.
				"cut in a record header": bytes.NewReader(capture[:boundary+7]),
				"reader that fails":      io.MultiReader(bytes.NewReader(capture[:boundary+100]), iotest.ErrReader(boom)),
			}
			for how, r := range readers {
				what := fmt.Sprintf("%d shards, %s after packet %d of %d", shards, how, k, len(pkts))
				var journal bytes.Buffer
				got, err := newMonitor(t, shards, &journal).ProcessPCAP(r)
				if err == nil {
					t.Fatalf("%s: no error", what)
				}
				if len(got) > len(full) {
					t.Fatalf("%s: %d alerts, the whole capture raises %d", what, len(got), len(full))
				}
				for i := range got {
					g, w := got[i], full[i]
					if g.Client != w.Client || !g.Time.Equal(w.Time) || g.ClusterID != w.ClusterID || g.TriggerHost != w.TriggerHost ||
						math.Float64bits(g.Score) != math.Float64bits(w.Score) {
						t.Fatalf("%s: alert %d is %+v, the whole capture's is %+v", what, i, g, w)
					}
				}
				records, err := obs.ReadJournal(&journal)
				if err != nil {
					t.Fatal(err)
				}
				var gotKeys, wantKeys []string
				for _, rec := range records {
					gotKeys = append(gotKeys, alertKey(rec.Client, rec.ClusterID, rec.Time))
				}
				for _, a := range got {
					wantKeys = append(wantKeys, alertKey(a.Client.String(), a.ClusterID, a.Time))
				}
				sort.Strings(gotKeys)
				sort.Strings(wantKeys)
				if !slices.Equal(gotKeys, wantKeys) {
					t.Fatalf("%s: the journal holds %d records for the %d alerts returned, or other ones", what, len(gotKeys), len(wantKeys))
				}
				someButNotAll = someButNotAll || len(got) > 0 && len(got) < len(full)
			}
		}
	}
	if !someButNotAll {
		t.Fatal("no cut returned some but not all of the alerts: the test exercised nothing")
	}
}

// reversedCapture is three one-request conversations written one after
// another, each dated a second before the one ahead of it: a capture that
// is not time-ordered.
func reversedCapture(t testing.TB) []byte {
	var pkts []pcap.Packet
	for i := 0; i < 3; i++ {
		c, err := pcap.BuildConversation(pcap.Conversation{
			ClientIP:   netip.MustParseAddr("10.0.0.5"),
			ServerIP:   netip.AddrFrom4([4]byte{203, 0, 113, byte(10 + i)}),
			ClientPort: uint16(49400 + i),
			ServerPort: 80,
			Exchanges: []pcap.Exchange{
				{ClientToServer: true, Payload: []byte(fmt.Sprintf("GET /page%d HTTP/1.1\r\nHost: site%d.com\r\n\r\n", i, i)), Timestamp: time.Unix(1468159200+int64(2-i), 0)},
				{ClientToServer: false, Payload: []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"), Timestamp: time.Unix(1468159200+int64(2-i), 50e6)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, c...)
	}
	return render(t, "pcap", pkts)
}

// TestLateTransactionsAreDeliveredAndCounted: a transaction that surfaces
// after a later-dated one was released (a capture that is not
// time-ordered) still reaches the engine, at once, and is counted in
// dynaminer_capture_late_transactions_total: as many as were delivered out
// of request-time order. Both capture paths count it, Monitor.ScanPCAP (what
// dynaminer stream runs) and ProcessPCAP. On the in-order corpus capture
// none are.
func TestLateTransactionsAreDeliveredAndCounted(t *testing.T) {
	for _, c := range []struct {
		name    string
		capture []byte
		late    int
	}{
		{"time-reversed", reversedCapture(t), 2},
		{"corpus, in order", render(t, "pcap", corpusPackets(t, corpus())), 0},
	} {
		name, capture := c.name, c.capture
		txs, err := dynaminer.ReadPCAP(bytes.NewReader(capture))
		if err != nil {
			t.Fatal(err)
		}
		outOfOrder := 0
		var latest time.Time
		scanner := newMonitor(t, 2, io.Discard)
		scanLate, err := scanner.ScanPCAP(bytes.NewReader(capture), func(tx *dynaminer.Transaction) {
			if tx.ReqTime.Before(latest) {
				outOfOrder++
			}
			if tx.ReqTime.After(latest) {
				latest = tx.ReqTime
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if counted := scanner.Registry().CounterValue("dynaminer_capture_late_transactions_total"); scanLate != outOfOrder || counted != int64(outOfOrder) {
			t.Fatalf("%s: ScanPCAP returned %d late and counted %d, %d delivered out of order", name, scanLate, counted, outOfOrder)
		}
		m := newMonitor(t, 2, io.Discard)
		if _, err := m.ProcessPCAP(bytes.NewReader(capture)); err != nil {
			t.Fatal(err)
		}
		late := m.Registry().CounterValue("dynaminer_capture_late_transactions_total")
		if got := m.Stats().Transactions; got != len(txs) {
			t.Fatalf("%s: the engine saw %d transactions, the capture holds %d", name, got, len(txs))
		}
		if late != int64(outOfOrder) {
			t.Fatalf("%s: %d late transactions counted, %d delivered out of order", name, late, outOfOrder)
		}
		if late != int64(c.late) {
			t.Fatalf("%s: %d late transactions, want %d", name, late, c.late)
		}
	}
}
