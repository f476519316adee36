package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"dynaminer"
)

// runSummarize prints a forensic summary of a capture: the graph-level
// annotations of Section III-C, the reconstructed redirect chains, and a
// per-host table — a Table I row for the analyst's own capture.
func runSummarize(args []string) error {
	fs := flag.NewFlagSet("summarize", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("summarize: need exactly one capture")
	}
	txs, err := dynaminer.ReadPCAPFile(fs.Arg(0))
	if err != nil {
		return err
	}
	w := dynaminer.BuildWCG(txs)
	s := w.Summarize()

	fmt.Printf("capture: %s\n", fs.Arg(0))
	fmt.Printf("transactions: %d   hosts: %d   edges: %d   duration: %s\n",
		len(txs), s.UniqueHosts, s.Size, s.Duration.Round(1e6))
	origin := "(unknown)"
	if w.OriginKnown {
		origin = w.OriginHost
	}
	fmt.Printf("origin: %s\n", origin)
	fmt.Printf("methods: GET=%d POST=%d other=%d   codes: 2xx=%d 3xx=%d 4xx=%d 5xx=%d\n",
		s.GETs, s.POSTs, s.OtherMethods, s.HTTP20X, s.HTTP30X, s.HTTP40X, s.HTTP50X)
	fmt.Printf("redirects: %d total, longest chain %d hops, %d cross-domain, %d TLDs, avg hop delay %s\n",
		s.Redirects.TotalRedirects, s.Redirects.MaxChainLen, s.Redirects.CrossDomainCount,
		s.Redirects.TLDDiversity, s.Redirects.AvgRedirectDelay.Round(1e6))
	fmt.Printf("exploit-class downloads: %d   post-download edges: %d   call-back: %v\n",
		s.DownloadedExploits, s.PostDownloadEdges, s.HasCallback)

	if len(s.PayloadCounts) > 0 {
		counts := make(map[string]int, len(s.PayloadCounts))
		for c, n := range s.PayloadCounts {
			counts[c.String()] = n
		}
		classes := make([]string, 0, len(counts))
		for name := range counts {
			classes = append(classes, name)
		}
		sort.Strings(classes)
		var parts []string
		for _, name := range classes {
			parts = append(parts, fmt.Sprintf("%s=%d", name, counts[name]))
		}
		fmt.Printf("payloads: %s\n", strings.Join(parts, " "))
	}

	chains := w.RedirectChains()
	if len(chains) > 0 {
		fmt.Println("\nredirect chains:")
		for _, c := range chains {
			var hops []string
			for _, id := range c.Nodes {
				hops = append(hops, w.Host(id))
			}
			fmt.Printf("  %s\n", strings.Join(hops, " -> "))
		}
	}

	fmt.Println("\nhosts:")
	fmt.Printf("  %-30s %-12s %5s %9s\n", "host", "role", "URIs", "payloads")
	for _, n := range w.Nodes {
		payloads := 0
		for _, c := range n.Payloads {
			payloads += int(c)
		}
		fmt.Printf("  %-30s %-12s %5d %9d\n", w.Host(n.ID), n.Type, n.URIs, payloads)
	}
	return nil
}
