package obs

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func sampleRecord(i int) AlertRecord {
	features := make([]float64, 37)
	for j := range features {
		// Awkward floats on purpose: the round-trip must be bit-exact.
		features[j] = float64(j+i) / 7.0 * math.Pi
	}
	return AlertRecord{
		Time:             time.Date(2026, 8, 5, 10, 30, 0, int(i)*1000, time.UTC),
		Client:           "10.0.0.7",
		ClusterID:        41 + i,
		ClueHost:         "payload.example",
		CluePayload:      "EXE",
		ClueRedirects:    3,
		WCGNodes:         12,
		WCGEdges:         30,
		WCGStructVersion: 9,
		Incremental:      i%2 == 0,
		Features:         features,
		Score:            0.625 + float64(i)/113.0,
		Threshold:        0.5,
		Votes:            21,
		Trees:            30,
		Degraded:         i == 1,
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournalWriter(&buf)
	want := []AlertRecord{sampleRecord(0), sampleRecord(1), sampleRecord(2)}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if j.Writes() != 3 || j.Drops() != 0 {
		t.Fatalf("writes=%d drops=%d, want 3/0", j.Writes(), j.Drops())
	}
	got, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal round-trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	// Bit-exactness of the decision values, explicitly.
	for i := range want {
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("record %d: score bits changed in round-trip", i)
		}
		for k := range want[i].Features {
			if math.Float64bits(got[i].Features[k]) != math.Float64bits(want[i].Features[k]) {
				t.Fatalf("record %d feature %d: bits changed in round-trip", i, k)
			}
		}
	}
}

func TestJournalFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.jsonl")
	j, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(sampleRecord(5)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Append-mode reopen must extend, not truncate.
	j2, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(sampleRecord(6)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	recs, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ClusterID != 46 || recs[1].ClusterID != 47 {
		t.Fatalf("file journal contents wrong: %+v", recs)
	}
}

type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

type explodingWriter struct{}

func (explodingWriter) Write([]byte) (int, error) { panic("disk on fire") }

func TestJournalAppendNeverPanics(t *testing.T) {
	for name, j := range map[string]*Journal{
		"nil journal":     nil,
		"failing writer":  NewJournalWriter(panicWriter{}),
		"panicky writer":  NewJournalWriter(explodingWriter{}),
		"closed journal":  func() *Journal { j := NewJournalWriter(&bytes.Buffer{}); j.Close(); return j }(),
		"unencodable rec": NewJournalWriter(&bytes.Buffer{}),
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Append panicked: %v", name, r)
				}
			}()
			rec := sampleRecord(0)
			if name == "unencodable rec" {
				rec.Score = math.NaN() // json.Marshal refuses NaN
			}
			err := j.Append(rec)
			if j != nil && name != "nil journal" && err == nil {
				t.Errorf("%s: expected an error", name)
			}
			if j != nil && err != nil && j.Drops() == 0 {
				t.Errorf("%s: drop not counted", name)
			}
		}()
	}
}

func TestReadJournalRejectsGarbage(t *testing.T) {
	// A damaged line with more records after it is corruption, not a torn
	// tail: Append's single-write discipline can only tear the final line.
	in := "{\"time\":\"2026-08-05T00:00:00Z\"}\nnot json\n{\"time\":\"2026-08-05T00:00:01Z\"}\n"
	if _, err := ReadJournal(bytes.NewBufferString(in)); err == nil {
		t.Fatal("ReadJournal accepted a mid-file non-JSON line")
	}
}

func TestReadJournalToleratesTornTail(t *testing.T) {
	// A crash or power loss can leave a half-written final record; the
	// reader must surface every complete record and drop only the tail.
	in := "{\"time\":\"2026-08-05T00:00:00Z\"}\n{\"time\":\"2026-08-05T00:00:01Z\"}\n{\"time\":\"2026-08-05T00:0"
	recs, err := ReadJournal(bytes.NewBufferString(in))
	if err != nil {
		t.Fatalf("torn tail reported as corruption: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want the 2 complete ones", len(recs))
	}
	// Trailing blank lines after the tear (e.g. a torn write of just the
	// newline) must not promote the tear into corruption.
	in = "{\"time\":\"2026-08-05T00:00:00Z\"}\n{\"bad\n\n"
	if recs, err = ReadJournal(bytes.NewBufferString(in)); err != nil || len(recs) != 1 {
		t.Fatalf("torn tail + blank line: recs=%d err=%v, want 1 record, nil error", len(recs), err)
	}
}

// FuzzReadJournal drives the torn-tail recovery. Arbitrary bytes never
// panic the reader, and reading stays under a constant plus 1 KiB per
// input byte: the densest journal is a run of three-byte "{}" lines, each
// a ~224-byte record plus the decoder's per-call state, about 500 bytes
// per input byte. And a journal that Append wrote, with the fuzzed bytes
// as one record's clue host, cut at the fuzzed offset reads back without
// error as exactly the records whose line the cut left whole.
func FuzzReadJournal(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("{}\n{}\n{}"), uint16(7))
	f.Add([]byte("{\"time\":\"2026-08-05T00:00:00Z\"}\n{\"bad\n\n"), uint16(300))
	f.Add([]byte("{\"features\":[1,2,3]}\nnot json\n{}\n"), uint16(1000))
	f.Add([]byte("payload.example"), uint16(65535))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = ReadJournal(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128<<10+1024*len(data)); got > limit {
			t.Fatalf("reading %d bytes allocated %d, want at most %d", len(data), got, limit)
		}

		var full bytes.Buffer
		j := NewJournalWriter(&full)
		var ends []int // offset just past each record's JSON, before its newline
		for i := 0; i < 3; i++ {
			rec := sampleRecord(i)
			if i == 1 {
				rec.ClueHost = string(data)
			}
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, full.Len()-1)
		}
		whole, err := ReadJournal(bytes.NewReader(full.Bytes()))
		if err != nil || len(whole) != len(ends) {
			t.Fatalf("the uncut journal read %d records of %d, error %v", len(whole), len(ends), err)
		}
		k := int(cut) % (full.Len() + 1)
		got, err := ReadJournal(bytes.NewReader(full.Bytes()[:k]))
		if err != nil {
			t.Fatalf("cut at byte %d of %d: %v", k, full.Len(), err)
		}
		n := 0
		for n < len(ends) && ends[n] <= k {
			n++
		}
		if len(got) != n || (n > 0 && !reflect.DeepEqual(got, whole[:n])) {
			t.Fatalf("cut at byte %d of %d: read %d records, want the %d whole ones", k, full.Len(), len(got), n)
		}
	})
}
