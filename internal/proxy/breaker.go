package proxy

import "time"

// breakerState is the classic three-state circuit: closed (requests flow,
// consecutive failures are counted), open (requests are refused with a
// synthesized 502 until the cooldown elapses), and probe (half-open: one
// request is let through to test the upstream; its outcome closes or
// re-opens the circuit).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerProbe
)

// breaker tracks one upstream host's circuit. Entries exist only for
// hosts that are currently failing: a healthy host has no breaker at all,
// and a circuit that closes again is deleted, so the map stays bounded by
// the number of concurrently broken upstreams.
type breaker struct {
	state    breakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
}

// breakerAllow reports whether a request to host may be sent upstream. An
// open circuit transitions to probe once the cooldown has elapsed, and the
// caller observing that transition carries the probe request; every other
// caller is refused until the probe resolves. Callers must not hold p.mu.
func (p *Proxy) breakerAllow(host string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.breakers[host]
	if !ok {
		return true
	}
	switch b.state {
	case breakerOpen:
		if p.now().Sub(b.openedAt) < breakerCooldown {
			return false
		}
		b.state = breakerProbe
		p.mx.breakerState.With(host).Set(int64(breakerProbe))
		return true
	case breakerProbe:
		return false
	default:
		return true
	}
}

// breakerResult records the outcome of an upstream exchange with host:
// transport-level failures advance the circuit toward open, successes
// reset it. Callers must not hold p.mu.
func (p *Proxy) breakerResult(host string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.breakers[host]
	if ok {
		// Healthy again (or still healthy): the circuit closes and its
		// bookkeeping — the state gauge child included — is dropped.
		if b != nil {
			delete(p.breakers, host)
			p.mx.breakerState.Delete(host)
		}
		return
	}
	if b == nil {
		b = &breaker{}
		p.breakers[host] = b
		// The gauge child is created here, when the host starts failing —
		// never on the relay hot path — and mirrors the breaker's life.
		p.mx.breakerState.With(host).Set(int64(breakerClosed))
	}
	switch b.state {
	case breakerProbe:
		// The probe failed: re-open and restart the cooldown.
		b.state = breakerOpen
		b.openedAt = p.now()
		p.mx.breakerState.With(host).Set(int64(breakerOpen))
		p.mx.breakerTrips.Inc()
	default:
		b.failures++
		if b.state == breakerClosed && b.failures >= breakerThreshold {
			b.state = breakerOpen
			b.openedAt = p.now()
			p.mx.breakerState.With(host).Set(int64(breakerOpen))
			p.mx.breakerTrips.Inc()
		}
	}
}
