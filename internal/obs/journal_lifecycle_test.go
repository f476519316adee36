package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// syncCountingWriter counts Sync calls and optionally fails them.
type syncCountingWriter struct {
	bytes.Buffer
	syncs   int
	syncErr error
}

func (w *syncCountingWriter) Sync() error {
	w.syncs++
	return w.syncErr
}

func TestJournalFsyncEvery(t *testing.T) {
	w := &syncCountingWriter{}
	j := NewJournalWriterWith(w, JournalConfig{FsyncEvery: 2})
	for i := 0; i < 5; i++ {
		if err := j.Append(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.syncs != 2 {
		t.Fatalf("syncs after 5 appends with FsyncEvery=2: %d, want 2", w.syncs)
	}
	if j.Syncs() != 2 || j.SyncFailures() != 0 {
		t.Fatalf("sync counters = %d/%d, want 2/0", j.Syncs(), j.SyncFailures())
	}
	// Explicit Sync flushes the odd record out.
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.syncs != 3 {
		t.Fatalf("syncs after explicit Sync: %d, want 3", w.syncs)
	}
}

// TestJournalFsyncInterval runs the interval policy under a clock decades
// from the wall clock, through both constructors: a sync the wall clock
// decided would fire on the first append or never.
func TestJournalFsyncInterval(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T, cfg JournalConfig) *Journal
	}{
		{"writer", func(t *testing.T, cfg JournalConfig) *Journal {
			return NewJournalWriterWith(&syncCountingWriter{}, cfg)
		}},
		{"path", func(t *testing.T, cfg JournalConfig) *Journal {
			j, err := NewJournalWith(filepath.Join(t.TempDir(), "alerts.jsonl"), cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			return j
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Date(1996, 8, 5, 12, 0, 0, 0, time.UTC)
			clock := func() time.Time { return now }
			j := tc.open(t, JournalConfig{FsyncInterval: time.Second, Now: clock})

			if err := j.Append(sampleRecord(0)); err != nil { // within the interval
				t.Fatal(err)
			}
			if j.Syncs() != 0 {
				t.Fatalf("sync fired inside the interval (%d)", j.Syncs())
			}
			now = now.Add(2 * time.Second)
			if err := j.Append(sampleRecord(1)); err != nil { // interval elapsed
				t.Fatal(err)
			}
			if j.Syncs() != 1 {
				t.Fatalf("syncs after interval elapsed: %d, want 1", j.Syncs())
			}
			// The interval clock resets at the sync.
			if err := j.Append(sampleRecord(2)); err != nil {
				t.Fatal(err)
			}
			if j.Syncs() != 1 {
				t.Fatalf("sync fired again without the interval elapsing (%d)", j.Syncs())
			}
		})
	}
}

func TestJournalSyncFailureCountedNotFatal(t *testing.T) {
	w := &syncCountingWriter{syncErr: fmt.Errorf("disk gone")}
	j := NewJournalWriterWith(w, JournalConfig{FsyncEvery: 1})
	// The append itself succeeds — the bytes are with the OS — and the
	// refused fsync is counted, not propagated.
	if err := j.Append(sampleRecord(0)); err != nil {
		t.Fatalf("append failed on a sync error: %v", err)
	}
	if j.SyncFailures() != 1 || j.Syncs() != 0 {
		t.Fatalf("sync counters = %d/%d, want 0 syncs, 1 failure", j.Syncs(), j.SyncFailures())
	}
	if err := j.Sync(); err == nil {
		t.Fatal("explicit Sync must surface the sink's error")
	}
}

func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alerts.jsonl")
	// Records are a few hundred bytes; rotate after ~one record.
	j, err := NewJournalWith(path, JournalConfig{MaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	total := 6
	for i := 0; i < total; i++ {
		if err := j.Append(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Rotations() == 0 {
		t.Fatal("no rotation happened")
	}

	// Every record survives, spread across the live file and the rotated
	// generations, in order.
	var all []AlertRecord
	for i := int(j.Rotations()); i >= 1; i-- {
		recs, err := ReadJournalFile(fmt.Sprintf("%s.%d", path, i))
		if err != nil {
			t.Fatalf("rotated file %d: %v", i, err)
		}
		all = append(recs, all...)
	}
	live, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, live...)
	if len(all) != total {
		t.Fatalf("recovered %d records across rotations, want %d", len(all), total)
	}
	for i, rec := range all {
		if rec.ClusterID != 41+i {
			t.Fatalf("record %d out of order: cluster %d", i, rec.ClusterID)
		}
	}

	// Reopening continues the rotation sequence instead of clobbering it.
	j2, err := NewJournalWith(path, JournalConfig{MaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j2.Append(sampleRecord(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	j2.Close()
	seq := int(j.Rotations()) + 1
	if _, err := os.Stat(fmt.Sprintf("%s.%d", path, seq)); err != nil {
		t.Fatalf("reopened journal did not continue the rotation sequence at .%d: %v", seq, err)
	}
}

func TestJournalFileSyncPolicy(t *testing.T) {
	// The file-backed journal must actually reach the os.File Sync path.
	path := filepath.Join(t.TempDir(), "alerts.jsonl")
	j, err := NewJournalWith(path, JournalConfig{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(sampleRecord(0)); err != nil {
		t.Fatal(err)
	}
	if j.Syncs() != 1 {
		t.Fatalf("file journal syncs = %d, want 1", j.Syncs())
	}
}
