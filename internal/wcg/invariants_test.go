package wcg

import (
	"math/rand"
	"testing"
	"time"

	"dynaminer/internal/synth"
)

// TestStageInvariantsOverCorpus checks the Section III-C staging rules on
// generated episodes: pre-download edges never follow the first exploit
// download, post-download edges never precede the last one, and graphs
// without exploit downloads stay entirely pre-download.
func TestStageInvariantsOverCorpus(t *testing.T) {
	eps := synth.GenerateCorpus(synth.Config{Seed: 77, Infections: 60, Benign: 60})
	for i := range eps {
		w := FromTransactions(eps[i].Txs)

		var tFirst, tLast time.Time
		for _, e := range w.Edges {
			if e.Kind == EdgeResponse && e.StatusCode >= 200 && e.StatusCode < 300 && e.PayloadType.IsExploitType() {
				if et := Time(e.Time); tFirst.IsZero() || et.Before(tFirst) {
					tFirst = et
				}
				if et := Time(e.Time); et.After(tLast) {
					tLast = et
				}
			}
		}
		for _, e := range w.Edges {
			et := Time(e.Time)
			switch e.Stage {
			case StagePreDownload:
				if !tFirst.IsZero() && et.After(tFirst) && e.Kind != EdgeRedirect {
					// Request/response edges staged pre-download must not
					// come after the first exploit delivery.
					t.Fatalf("episode %d (%s): pre-download edge at %v after first download %v",
						i, eps[i].Family, et, tFirst)
				}
			case StagePostDownload:
				if tFirst.IsZero() {
					t.Fatalf("episode %d: post-download stage without any download", i)
				}
				if et.Before(tLast) {
					t.Fatalf("episode %d: post-download edge at %v before last download %v",
						i, et, tLast)
				}
			case StageDownload:
				if tFirst.IsZero() {
					t.Fatalf("episode %d: download stage without any download", i)
				}
			}
		}
	}
}

// TestNodeRoleInvariants: exactly one victim; malicious nodes actually
// delivered exploit payloads; intermediaries touch only redirect edges.
func TestNodeRoleInvariants(t *testing.T) {
	eps := synth.GenerateCorpus(synth.Config{Seed: 78, Infections: 40, Benign: 40})
	for i := range eps {
		w := FromTransactions(eps[i].Txs)
		victims := 0
		for _, n := range w.Nodes {
			switch n.Type {
			case NodeVictim:
				victims++
			case NodeMalicious:
				served := false
				for _, e := range w.Edges {
					if e.Kind == EdgeResponse && int(e.From) == n.ID && e.PayloadType.IsExploitType() &&
						e.StatusCode >= 200 && e.StatusCode < 300 {
						served = true
					}
				}
				if !served {
					t.Fatalf("episode %d: node %s malicious without delivering a payload", i, w.Host(n.ID))
				}
			case NodeIntermediary:
				for _, e := range w.Edges {
					if e.Kind != EdgeRedirect && (int(e.From) == n.ID || int(e.To) == n.ID) {
						t.Fatalf("episode %d: intermediary %s has non-redirect edge", i, w.Host(n.ID))
					}
				}
			}
		}
		if len(eps[i].Txs) > 0 && victims != 1 {
			t.Fatalf("episode %d: %d victim nodes", i, victims)
		}
		// Benign episodes must have no malicious nodes unless they include
		// exploit-class downloads (webmail attachments, unofficial mirrors).
		if !eps[i].Infection {
			s := w.Summarize()
			for _, n := range w.Nodes {
				if n.Type == NodeMalicious && s.DownloadedExploits == 0 {
					t.Fatalf("episode %d: benign WCG with malicious node but no downloads", i)
				}
			}
		}
	}
}

// TestFeatureTotalsMatchTransactions: request-method counts across the WCG
// equal the number of transactions fed in.
func TestFeatureTotalsMatchTransactions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		fam := synth.Families[trial%len(synth.Families)].Name
		ep := synth.GenerateInfection(fam, time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC), rng)
		s := FromTransactions(ep.Txs).Summarize()
		if got := s.GETs + s.POSTs + s.OtherMethods; got != len(ep.Txs) {
			t.Fatalf("trial %d: %d request edges for %d transactions", trial, got, len(ep.Txs))
		}
		codes := s.HTTP10X + s.HTTP20X + s.HTTP30X + s.HTTP40X + s.HTTP50X
		if codes != len(ep.Txs) {
			t.Fatalf("trial %d: %d response codes for %d transactions", trial, codes, len(ep.Txs))
		}
	}
}
