package graph

// BFSRuns is the number of BFS passes s has run; the difference across
// one PathStatsS call is that sweep's BFS count.
func (s *Scratch) BFSRuns() int { return s.bfsRuns }

// RandomMultigraph exposes the seeded multigraph generator to the external
// tests.
var RandomMultigraph = randomMultigraph
