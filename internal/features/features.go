// Package features computes DynaMiner's 37 payload-agnostic features
// (Table II) from an annotated web conversation graph: 6 high-level
// features (HLFs), 19 graph-centric features (GFs), 10 HTTP header features
// (HFs), and 2 temporal features (TFs).
package features

import (
	"dynaminer/internal/wcg"
)

// NumFeatures is the size of a feature vector (f1..f37).
const NumFeatures = 37

// Group labels a feature family from Table II.
type Group int

// Feature groups.
const (
	HLF Group = iota + 1 // high-level features f1-f6
	GF                   // graph features f7-f25
	HF                   // header features f26-f35
	TF                   // temporal features f36-f37
)

// String names the group the way the paper abbreviates it.
func (g Group) String() string {
	switch g {
	case HLF:
		return "HLF"
	case GF:
		return "GF"
	case HF:
		return "HF"
	case TF:
		return "TF"
	default:
		return "?"
	}
}

// names holds the Table II feature names, indexed f1..f37 (0-based).
var names = [NumFeatures]string{
	"Origin",                     // f1
	"X-Flash-Version",            // f2
	"WCG-Size",                   // f3
	"Conversation-Length",        // f4
	"Avg-URIs-per-Host",          // f5
	"Average-URI-Length",         // f6
	"Order",                      // f7
	"Size",                       // f8
	"Degree",                     // f9
	"Density",                    // f10
	"Volume",                     // f11
	"Diameter",                   // f12
	"Avg-In-Degree",              // f13
	"Avg-Out-Degree",             // f14
	"Reciprocity",                // f15
	"Avg-Degree-Centrality",      // f16: served as 2·pairs/(n(n−1)) (EXPERIMENTS.md divergence 3)
	"Avg-Closeness-Centrality",   // f17
	"Avg-Betweenness-Centrality", // f18: served as Σ(d−1)/(n(n−1)(n−2)) (EXPERIMENTS.md divergence 3)
	"Avg-Load-Centrality",        // f19: served as a copy of f18 (EXPERIMENTS.md divergence 3)
	"Avg-Node-Centrality",        // f20
	"Avg-Clustering-Coefficient", // f21
	"Avg-Neighbor-Degree",        // f22
	"Avg-Degree-Connectivity",    // f23
	"Avg-K-Nearest-Neighbors",    // f24
	"Avg-PageRank",               // f25: served as 1/n (EXPERIMENTS.md divergence 3)
	"GETs",                       // f26
	"POSTs",                      // f27
	"Other-Methods",              // f28
	"HTTP-10Xs",                  // f29
	"HTTP-20Xs",                  // f30
	"HTTP-30Xs",                  // f31
	"HTTP-40Xs",                  // f32
	"HTTP-50Xs",                  // f33
	"Referrer-Ctrs",              // f34
	"No-Referrer-Ctrs",           // f35
	"Duration",                   // f36
	"Avg-Inter-Transact-Time",    // f37
}

// groups maps each feature index to its Table II group.
var groups = [NumFeatures]Group{
	HLF, HLF, HLF, HLF, HLF, HLF,
	GF, GF, GF, GF, GF, GF, GF, GF, GF, GF, GF, GF, GF, GF, GF, GF, GF, GF, GF,
	HF, HF, HF, HF, HF, HF, HF, HF, HF, HF,
	TF, TF,
}

// novel marks the 27 features introduced by the paper (checkmarks in
// Table II's last column).
var novel = [NumFeatures]bool{
	false, true, false, true, false, true, // f1-f6
	false, false, true, false, true, false, true, true, true, true, true, true, true, true, false, true, true, true, true, // f7-f25
	true, true, true, true, true, true, true, true, false, false, // f26-f35
	true, true, // f36-f37
}

// Name returns the Table II name of feature i (0-based index for f(i+1)).
func Name(i int) string { return names[i] }

// GroupOf returns the group of feature i.
func GroupOf(i int) Group { return groups[i] }

// IsNovel reports whether feature i is novel to the paper.
func IsNovel(i int) bool { return novel[i] }

// Indices returns the 0-based feature indices belonging to any of the given
// groups, in ascending order.
func Indices(gs ...Group) []int {
	want := make(map[Group]bool, len(gs))
	for _, g := range gs {
		want[g] = true
	}
	var out []int
	for i, g := range groups {
		if want[g] {
			out = append(out, i)
		}
	}
	return out
}

// knnRadius is the k used by f24: nodes within distance k.
const knnRadius = 2

// Extract computes the full 37-dimensional feature vector of a WCG. It is
// the one-shot form of Cache: both the batch experiments and the detector's
// incremental path run the same extraction code, so their vectors agree
// bit for bit (pinned by the differential tests in this package and in
// internal/detector).
func Extract(w *wcg.WCG) []float64 {
	return NewCache(w, nil).Features()
}

func boolFeature(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
