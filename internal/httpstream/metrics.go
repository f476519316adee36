package httpstream

import (
	"time"

	"dynaminer/internal/obs"
)

// parseClock is a function value (never a bare time.Now() call, which
// TestNoBareClockReads forbids) so the package can be pointed at a fake
// clock if a test ever needs to.
var parseClock = time.Now

// Telemetry is what one owner of a capture path — a Monitor — counts of
// it: four series on the owner's registry, the httpstream.parse stage
// histogram among them, and, when the owner traces, the pcap.reassemble
// stage of its tracer. Both stages are observed once per TCP
// conversation, as it closes, so they feed stage latency rather than
// opening spans inside any one transaction's tree. A nil *Telemetry
// counts nothing.
type Telemetry struct {
	parseSeconds *obs.Histogram
	transactions *obs.Counter
	bytes        *obs.Counter
	unparsed     *obs.Counter

	tracer *obs.Tracer // nil when the owner does not trace
}

// NewTelemetry registers the capture path's series on reg; scan hands t
// (nil: the owner does not trace) to its Assembler, which binds
// pcap.reassemble.
func NewTelemetry(reg *obs.Registry, t *obs.Tracer) *Telemetry {
	return &Telemetry{
		parseSeconds: reg.Histogram("dynaminer_stage_httpstream_parse_seconds",
			"Wall time parsing one TCP conversation into transactions.", obs.LatencyBuckets),
		transactions: reg.Counter("dynaminer_httpstream_transactions_total",
			"Transactions extracted from parsed streams."),
		bytes: reg.Counter("dynaminer_httpstream_bytes_total",
			"TCP payload bytes fed through the HTTP parsers."),
		unparsed: reg.Counter("dynaminer_httpstream_unparsed_bytes_total",
			"Bytes of parsed directions from the first head the HTTP parser rejected to the direction's end, and of lone directions that do not start with a request: traffic that is not HTTP."),
		tracer: t,
	}
}

// parsed records one conversation whose parse began at start: its payload
// bytes, the transactions it yielded and its unparsed bytes.
func (tm *Telemetry) parsed(start time.Time, payload int64, txs, unparsed int) {
	tm.parseSeconds.Observe(parseClock().Sub(start).Seconds())
	tm.bytes.Add(payload)
	tm.transactions.Add(int64(txs))
	if unparsed > 0 {
		tm.unparsed.Add(int64(unparsed))
	}
}
