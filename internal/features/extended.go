package features

import (
	"dynaminer/internal/graph"
	"dynaminer/internal/wcg"
)

// Extended feature names (x1..x8), appended after f1..f37 by
// ExtractExtended. These explore the "richer analytics" direction the
// paper's conclusion points at, using measures its feature set omits.
var extendedNames = []string{
	"Radius",               // x1: min eccentricity of the main component
	"Avg-Eccentricity",     // x2
	"Degeneracy",           // x3: max k-core number
	"Degree-Assortativity", // x4
	"SCC-Count",            // x5: strongly connected components
	"Largest-SCC",          // x6: size of the largest SCC
	"Cross-Domain-Redirs",  // x7: redirects crossing registered domains
	"TLD-Diversity",        // x8: distinct TLDs in redirect chains
}

// NumExtendedFeatures is the dimensionality of ExtractExtended's output.
const NumExtendedFeatures = NumFeatures + 8

// ExtendedName returns the name of extended-vector index i (0-based over
// the full 45-dimensional vector).
func ExtendedName(i int) string {
	if i < NumFeatures {
		return Name(i)
	}
	return extendedNames[i-NumFeatures]
}

// ExtractExtended computes the 37 Table II features plus 8 extended graph
// measures. The extended measures share the extraction's scratch, so they
// read the projections it already built.
func ExtractExtended(w *wcg.WCG) []float64 {
	s := graph.NewScratch()
	base := NewCache(w, s).Features()
	g := w.Graph()
	out := make([]float64, 0, NumExtendedFeatures)
	out = append(out, base...)

	out = append(out, float64(g.Radius(s)))
	ecc := g.Eccentricities(s)
	eccF := make([]float64, len(ecc))
	for i, e := range ecc {
		eccF[i] = float64(e)
	}
	out = append(out, graph.Mean(eccF))
	out = append(out, float64(g.Degeneracy(s)))
	out = append(out, g.DegreeAssortativity(s))
	sccs := g.StronglyConnectedComponents(s)
	out = append(out, float64(len(sccs)))
	largest := 0
	if len(sccs) > 0 {
		largest = len(sccs[0])
	}
	out = append(out, float64(largest))

	st := w.RedirectStats()
	out = append(out, float64(st.CrossDomainCount))
	out = append(out, float64(st.TLDDiversity))
	return out
}
