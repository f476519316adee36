package httpstream

// RefExtractPair exposes the net/http oracle to the external tests, which
// can import the synth generator that imports this package.
var RefExtractPair = refExtractPair
