package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynaminer"
)

// TestJournalRendersZeroTimeUnset pins the journal renderer's timestamp
// column: a record without a time prints "unset", never the zero time's
// year 1, and a stamped one prints its time.
func TestJournalRendersZeroTimeUnset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.jsonl")
	j, err := dynaminer.NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	stamped := time.Date(2016, 3, 1, 8, 0, 0, 0, time.UTC)
	for _, rec := range []dynaminer.AlertRecord{
		{Client: "10.0.0.1", ClusterID: 1},
		{Time: stamped, Client: "10.0.0.2", ClusterID: 2},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error { return run([]string{"journal", path}) })
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "unset client=10.0.0.1 ") {
		t.Fatalf("record without a time renders as %q, want it to start \"unset client=10.0.0.1 \"", lines[0])
	}
	if !strings.HasPrefix(lines[1], "2016-03-01 08:00:00.000 client=10.0.0.2 ") {
		t.Fatalf("stamped record renders as %q", lines[1])
	}
}

// TestMetricsPrintsChildrenSorted pins the metrics subcommand's rendering of
// a gauge family: its 12 children print in label order on every one of 20
// calls, whatever order the decoded child map iterates in.
func TestMetricsPrintsChildrenSorted(t *testing.T) {
	children := map[string]int64{}
	var want []string
	for i := 0; i < 12; i++ {
		host := fmt.Sprintf("h%02d.example", i)
		children[host] = int64(i)
		want = append(want, fmt.Sprintf("%-52s %d", "dynaminer_breaker_state_total{"+host+"}", i))
	}
	snap, err := json.Marshal([]dynaminer.MetricSnapshot{{
		Name: "dynaminer_breaker_state_total", Type: "gauge", Children: children,
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot" {
			http.NotFound(w, r)
			return
		}
		w.Write(snap)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	for call := 0; call < 20; call++ {
		out := captureStdout(t, func() error { return run([]string{"metrics", "-addr", addr}) })
		if strings.TrimSuffix(out, "\n") != strings.Join(want, "\n") {
			t.Fatalf("call %d printed\n%s\nwant, in label order,\n%s", call, out, strings.Join(want, "\n"))
		}
	}
}
