package wcg

import (
	"time"

	"dynaminer/internal/httpstream"
)

// IncrementalBuilder owns the live WCG of one watched cluster in the
// on-the-wire pipeline (Section V). Where the batch path rebuilds the
// graph with FromTransactions over a re-copied subset on every update, the
// incremental builder consumes each transaction exactly once: Append
// updates nodes, edges, annotations, redirect bookkeeping, and the
// structural projection in place.
//
// Correctness contract: after N in-order Append calls, Finalize returns a
// WCG byte-identical (WriteJSON) to FromTransactions over the same N
// transactions. FromTransactions stable-sorts by request time, so the
// identity only holds for non-decreasing arrival order — Append refuses,
// without mutating anything, transactions that would violate it, and the
// caller falls back to the batch path.
type IncrementalBuilder struct {
	b       *Builder
	lastReq time.Time
	count   int
}

// NewIncrementalBuilder returns an empty incremental builder.
func NewIncrementalBuilder() *IncrementalBuilder {
	return &IncrementalBuilder{b: NewBuilder()}
}

// Append ingests one transaction in O(1) amortized time. It reports false
// — leaving the WCG untouched — when tx arrives out of request-time order,
// in which case the caller must rebuild from scratch.
func (ib *IncrementalBuilder) Append(tx httpstream.Transaction) bool {
	if ib.count > 0 && tx.ReqTime.Before(ib.lastReq) {
		return false
	}
	ib.b.Add(tx)
	ib.lastReq = tx.ReqTime
	ib.count++
	return true
}

// Len returns the number of transactions appended so far.
func (ib *IncrementalBuilder) Len() int { return ib.count }

// Live returns the live, un-finalized WCG. Conversation stages and node
// roles are not assigned — none of the 37 features read them — and the
// graph mutates on the next Append; callers must not retain it across
// appends (FromTransactions over the same prefix builds a stable copy).
func (ib *IncrementalBuilder) Live() *WCG { return ib.b.w }

// Finalize assigns conversation stages and node roles and returns the
// live WCG. The builder stays usable: later Appends grow the same graph
// and a later Finalize re-runs the (idempotent) finalization.
func (ib *IncrementalBuilder) Finalize() *WCG { return ib.b.WCG() }
