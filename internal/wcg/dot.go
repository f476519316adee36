package wcg

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// DOT renders the WCG in Graphviz format in the style of the paper's
// Figure 6: nodes are hosts colored by role, request edges show the HTTP
// method and URI length, response edges show status code, payload type and
// size, and redirect edges are dashed.
func (w *WCG) DOT(title string) string {
	var sb strings.Builder
	sb.WriteString("digraph wcg {\n")
	if title != "" {
		fmt.Fprintf(&sb, "  label=%q;\n", title)
	}
	sb.WriteString("  rankdir=LR;\n  node [shape=box, style=filled];\n")
	for _, n := range w.Nodes {
		color := "white"
		switch n.Type {
		case NodeVictim:
			color = "lightblue"
		case NodeMalicious:
			color = "salmon"
		case NodeIntermediary:
			color = "lightyellow"
		case NodeOrigin:
			color = "lightgreen"
		}
		fmt.Fprintf(&sb, "  n%d [label=%q, fillcolor=%q];\n", n.ID, w.Host(n.ID), color)
	}
	edges := slices.Clone(w.Edges)
	slices.SortStableFunc(edges, func(a, b Edge) int { return cmp.Compare(a.Time, b.Time) })
	for _, e := range edges {
		switch e.Kind {
		case EdgeRequest:
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"req: %s,%d\"];\n", e.From, e.To, w.Method(&e), e.URILen)
		case EdgeResponse:
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"res: %d,%s,%dB\", color=gray];\n",
				e.From, e.To, e.StatusCode, e.PayloadType, e.PayloadSize)
		case EdgeRedirect:
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"redir\", style=dashed, color=red];\n", e.From, e.To)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
