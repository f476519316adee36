package pcap

import (
	"sync/atomic"
	"time"

	"dynaminer/internal/obs"
)

// pcap has no owning serving instance, so its share of pipeline tracing
// is a package-level binding: SetTracer points the Assembler at a tracer's
// pcap.reassemble stage (histogram + slow EWMA), nil detaches. One
// observation covers reassembling one conversation — every Feed of one of
// its frames and assembling its two directions as it closes. A conversation
// holds many transactions, so it feeds stage latency rather than opening
// spans inside any one transaction's tree.
type traceBinding struct {
	t     *obs.Tracer
	stage obs.StageID
}

var capTrace atomic.Pointer[traceBinding]

// traceClock is a function value per the zerotime invariant.
var traceClock = time.Now

// SetTracer attaches (or, with nil, detaches) a pipeline tracer to the
// package's reassembly timing.
func SetTracer(t *obs.Tracer) {
	if t == nil {
		capTrace.Store(nil)
		return
	}
	capTrace.Store(&traceBinding{t: t, stage: t.Stage("pcap.reassemble")})
}
