package httpstream

import (
	"sync/atomic"
	"time"

	"dynaminer/internal/obs"
)

// httpstream is a library with no owning serving instance, so its parse
// telemetry lives on the process-wide obs.Default registry. The clock is
// a function value (never a bare time.Now() call — the zerotime
// invariant) so the package can be pointed at a fake clock if a test
// ever needs to.
var (
	parseClock = time.Now

	parseSeconds = obs.Default().Histogram("dynaminer_httpstream_parse_seconds",
		"Wall time parsing one TCP conversation into transactions.", obs.LatencyBuckets)
	parseTransactions = obs.Default().Counter("dynaminer_httpstream_transactions_total",
		"Transactions extracted from parsed streams.")
	parseBytes = obs.Default().Counter("dynaminer_httpstream_bytes_total",
		"TCP payload bytes fed through the HTTP parsers.")
	parseUnparsed = obs.Default().Counter("dynaminer_httpstream_unparsed_bytes_total",
		"Bytes of parsed directions from the first head the HTTP parser rejected to the direction's end, and of lone directions that do not start with a request: traffic that is not HTTP.")
)

// traceBinding mirrors the parse telemetry into a pipeline tracer's
// httpstream.parse stage (histogram + slow EWMA). Like the registry
// metrics above it is package-level — one call parses a whole TCP
// conversation as it closes, so it feeds stage latency rather than
// opening spans inside any single transaction's tree.
type traceBinding struct {
	t     *obs.Tracer
	stage obs.StageID
}

var parseTrace atomic.Pointer[traceBinding]

// SetTracer attaches (or, with nil, detaches) a pipeline tracer to the
// package's parse timing.
func SetTracer(t *obs.Tracer) {
	if t == nil {
		parseTrace.Store(nil)
		return
	}
	parseTrace.Store(&traceBinding{t: t, stage: t.Stage("httpstream.parse")})
}
