package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"

	"dynaminer"
)

// runJournal renders an alert provenance journal (JSONL, written by
// stream/proxy -journal) as one line per alert, or re-emits the records
// as canonical JSON with -json.
func runJournal(args []string) error {
	fs := flag.NewFlagSet("journal", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "re-emit records as canonical JSON lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("journal: need exactly one journal file")
	}
	recs, err := dynaminer.ReadJournalFile(fs.Arg(0))
	if err != nil {
		return err
	}
	for _, r := range recs {
		if *asJSON {
			data, err := json.Marshal(r)
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			continue
		}
		ts := "unset"
		if !r.Time.IsZero() {
			ts = r.Time.Format("2006-01-02 15:04:05.000")
		}
		mode := "incremental"
		if !r.Incremental {
			mode = "rebuild"
		}
		line := fmt.Sprintf("%s client=%s cluster=%d clue=%s/%s score=%.3f (threshold %.2f)",
			ts, r.Client, r.ClusterID, r.CluePayload, r.ClueHost, r.Score, r.Threshold)
		if r.Trees > 0 {
			line += fmt.Sprintf(" votes=%d/%d", r.Votes, r.Trees)
		}
		line += fmt.Sprintf(" wcg=%dn/%de v%d %s", r.WCGNodes, r.WCGEdges, r.WCGStructVersion, mode)
		if r.Quarantined {
			line += " quarantined"
		}
		if r.TraceID != 0 {
			line += fmt.Sprintf(" trace=%d", r.TraceID)
		}
		fmt.Println(line)
	}
	fmt.Printf("%d alert record(s), %d features each\n", len(recs), featureWidth(recs))
	return nil
}

// featureWidth reports the feature-vector width of the records (0 when
// the journal is empty).
func featureWidth(recs []dynaminer.AlertRecord) int {
	if len(recs) == 0 {
		return 0
	}
	return len(recs[0].Features)
}

// runTrace fetches a live admin server's /trace ring as Chrome
// trace-event JSON (chrome://tracing / Perfetto); -id fetches one trace's
// span tree as a TraceSnapshot — the form journal trace= IDs resolve
// through. Either is validated before printing, so a broken payload fails
// loudly instead of producing a file its reader rejects.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "admin server address (host:port)")
	id := fs.Uint64("id", 0, "fetch one trace by trace_id (as stamped on journal records)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	url := "http://" + *addr + "/trace"
	if *id != 0 {
		url = fmt.Sprintf("http://%s/trace?id=%d", *addr, *id)
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace: %s returned %s", *addr, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if *id != 0 {
		var snap dynaminer.TraceSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return fmt.Errorf("trace: invalid trace snapshot: %w", err)
		}
	} else {
		var f struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &f); err != nil {
			return fmt.Errorf("trace: invalid trace-event JSON: %w", err)
		}
	}
	os.Stdout.Write(body)
	return nil
}

// runMetrics fetches a live admin server's /snapshot and renders every
// metric's current value.
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "admin server address (host:port)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := http.Get("http://" + *addr + "/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: %s returned %s", *addr, resp.Status)
	}
	var snaps []dynaminer.MetricSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		return fmt.Errorf("metrics: decode snapshot: %w", err)
	}
	for _, s := range snaps {
		switch {
		case s.Type == "histogram":
			fmt.Printf("%-52s count=%d sum=%g\n", s.Name, s.Count, s.Sum)
		case len(s.Children) > 0:
			labels := make([]string, 0, len(s.Children))
			for l := range s.Children {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				fmt.Printf("%-52s %d\n", fmt.Sprintf("%s{%s}", s.Name, l), s.Children[l])
			}
		default:
			fmt.Printf("%-52s %d\n", s.Name, s.Value)
		}
	}
	return nil
}
