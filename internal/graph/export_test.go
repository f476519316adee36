package graph

// RandomMultigraph exposes the seeded multigraph generator to the external
// tests.
var RandomMultigraph = randomMultigraph
