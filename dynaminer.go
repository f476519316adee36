// Package dynaminer is a reproduction of "DynaMiner: Leveraging Offline
// Infection Analytics for On-the-Wire Malware Detection" (Eshete and
// Venkatakrishnan, DSN 2017): a payload-agnostic malware detector that
// abstracts HTTP conversations into annotated Web Conversation Graphs
// (WCGs), extracts 37 graph/header/temporal features, and classifies with
// an Ensemble Random Forest that averages per-tree class probabilities.
//
// The package exposes the two stages the paper describes:
//
//   - Offline web conversation analytics: parse captures (ReadPCAPFile or
//     ReadPCAP), build WCGs (BuildWCG), extract features
//     (ExtractFeatures), and train a Classifier (Train).
//   - On-the-wire detection: NewMonitor wraps a trained Classifier in a
//     streaming engine that infers infection clues, constructs potential
//     infection WCGs, and alerts.
//
// The ground-truth corpus the paper trains on is not redistributable; the
// Corpus function synthesizes a statistically equivalent one (see
// DESIGN.md for the substitution argument).
package dynaminer

import (
	"fmt"
	"io"
	"os"

	"dynaminer/internal/detector"
	"dynaminer/internal/features"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/pcap"
	"dynaminer/internal/synth"
	"dynaminer/internal/wcg"
)

// Re-exported core types. Aliases keep the internal packages as the single
// implementation while making the types usable through the public API.
type (
	// Transaction is one HTTP request/response pair.
	Transaction = httpstream.Transaction
	// WCG is an annotated web conversation graph.
	WCG = wcg.WCG
	// Episode is one labeled conversation from the synthetic corpus.
	Episode = synth.Episode
	// CorpusConfig parameterizes synthetic corpus generation.
	CorpusConfig = synth.Config
	// Alert is an on-the-wire infection verdict.
	Alert = detector.Alert
	// MonitorConfig tunes the on-the-wire engine.
	MonitorConfig = detector.Config
	// MonitorStats counts engine activity.
	MonitorStats = detector.Stats
	// WatchedWCG describes one actively watched potential-infection WCG.
	WatchedWCG = detector.WatchedWCG
	// Packet is one captured frame.
	Packet = pcap.Packet
)

// NumFeatures is the dimensionality of the paper's feature vector (37).
const NumFeatures = features.NumFeatures

// ReadPCAP is the collecting form of Monitor.ScanPCAP, with no monitor to
// count it: every transaction of the capture, sorted by request time, or
// nothing but the error.
func ReadPCAP(r io.Reader) ([]Transaction, error) { return httpstream.ReadCapture(r) }

// ReadPCAPFile is ReadPCAP over a file path.
func ReadPCAPFile(path string) ([]Transaction, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open capture: %w", err)
	}
	defer f.Close()
	txs, err := ReadPCAP(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return txs, nil
}

// BuildWCG constructs an annotated web conversation graph from a
// transaction stream (the paper's Section III).
func BuildWCG(txs []Transaction) *WCG { return wcg.FromTransactions(txs) }

// ExtractFeatures computes the 37-dimensional payload-agnostic feature
// vector of a WCG (Table II).
func ExtractFeatures(w *WCG) []float64 { return features.Extract(w) }

// FeatureName returns the Table II name of feature i (0-based).
func FeatureName(i int) string { return features.Name(i) }

// Corpus synthesizes a labeled ground-truth corpus equivalent in
// distribution to the paper's 770-infection / 980-benign dataset.
func Corpus(cfg CorpusConfig) []Episode { return synth.GenerateCorpus(cfg) }

// EpisodeWCG builds the WCG of one corpus episode.
func EpisodeWCG(e *Episode) *WCG { return wcg.FromTransactions(e.Txs) }
