package pcap

import (
	"time"

	"dynaminer/internal/obs"
)

// traceClock is the wall clock as a function value: library code never
// calls time.Now() bare (TestNoBareClockReads).
var traceClock = time.Now

// Trace points the Assembler's reassembly timing at the pcap.reassemble
// stage of the pipeline tracer t; a nil t observes nothing. One
// observation covers reassembling one conversation — every Feed of one of
// its frames and assembling its two directions as it closes. A
// conversation holds many transactions, so it feeds stage latency rather
// than opening spans inside any one transaction's tree.
func (a *Assembler) Trace(t *obs.Tracer) {
	a.tracer = t
	if t != nil {
		a.stage = t.Stage("pcap.reassemble")
	}
}
