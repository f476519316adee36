package httpstream

import (
	"time"

	"dynaminer/internal/obs"
)

// Telemetry is what one owner of a capture path — a Monitor — counts of
// it: three series on the owner's registry and, when the owner traces,
// the pcap.reassemble and httpstream.parse stages of its tracer. Both
// stages are observed once per TCP conversation, as it closes, so they
// feed stage latency rather than opening spans inside any one
// transaction's tree; an untraced owner reads no clock. A nil *Telemetry
// counts nothing.
type Telemetry struct {
	transactions *obs.Counter
	bytes        *obs.Counter
	unparsed     *obs.Counter

	tracer *obs.Tracer // nil when the owner does not trace
	parse  obs.StageID
}

// NewTelemetry registers the capture path's series on reg and binds the
// httpstream.parse stage of t (nil: the owner does not trace); scan hands
// t to its Assembler, which binds pcap.reassemble.
func NewTelemetry(reg *obs.Registry, t *obs.Tracer) *Telemetry {
	tm := &Telemetry{
		transactions: reg.Counter("dynaminer_httpstream_transactions_total",
			"Transactions extracted from parsed streams."),
		bytes: reg.Counter("dynaminer_httpstream_bytes_total",
			"TCP payload bytes fed through the HTTP parsers."),
		unparsed: reg.Counter("dynaminer_httpstream_unparsed_bytes_total",
			"Bytes of parsed directions from the first head the HTTP parser rejected to the direction's end, and of lone directions that do not start with a request: traffic that is not HTTP."),
		tracer: t,
	}
	if t != nil {
		tm.parse = t.Stage("httpstream.parse")
	}
	return tm
}

// parsed records one conversation whose parse began at the tracer mark
// start: its parse time, its payload bytes, the transactions it yielded
// and its unparsed bytes.
func (tm *Telemetry) parsed(start time.Duration, payload int64, txs, unparsed int) {
	tm.tracer.ObserveStage(tm.parse, (tm.tracer.Mark() - start).Seconds())
	tm.bytes.Add(payload)
	tm.transactions.Add(int64(txs))
	if unparsed > 0 {
		tm.unparsed.Add(int64(unparsed))
	}
}
