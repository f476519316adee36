package wcg

import (
	"cmp"
	"slices"

	"dynaminer/internal/httpstream"
)

// IncrementalBuilder owns the live WCG of one watched cluster in the
// on-the-wire pipeline (Section V). Where the batch path rebuilds the
// graph with FromRecords over the whole subset on every update, the
// incremental builder consumes each record exactly once: AppendRecord
// updates nodes, edges, annotations, redirect bookkeeping, and the
// structural projection in place.
//
// Correctness contract: after N in-order appends, Finalize returns a WCG
// byte-identical (WriteJSON) to FromRecords (or FromTransactions) over the
// same N transactions. FromRecords is SeedIncrementalBuilder plus
// Finalize, and the seed stable-sorts by request time, so the identity
// only holds for non-decreasing arrival order: an append refuses, without
// mutating anything, a record that would violate it, and the caller
// reseeds a fresh builder over the whole set, the refused record included.
type IncrementalBuilder struct {
	b       *Builder
	lastReq int64
	count   int
}

// NewIncrementalBuilder returns an empty incremental builder over a table
// of its own, for Append.
func NewIncrementalBuilder() *IncrementalBuilder {
	return &IncrementalBuilder{b: NewBuilder()}
}

// SeedIncrementalBuilder returns an incremental builder over the records
// of t that has appended recs[i], i in idxs, in request-time order, ties
// in idxs order; later records go in with AppendRecord. This stable sort
// is the only place the order of a record set is decided, for FromRecords
// and for the detector's live graphs alike. idxs is not modified, and
// copied only when it is out of order (a watch seeded at arming rarely
// is).
func SeedIncrementalBuilder(t *Table, recs []Record, idxs []int) *IncrementalBuilder {
	byReq := func(a, b int) int { return cmp.Compare(recs[a].ReqTime, recs[b].ReqTime) }
	order := idxs
	if !slices.IsSortedFunc(order, byReq) {
		order = slices.Clone(idxs)
		slices.SortStableFunc(order, byReq)
	}
	ib := &IncrementalBuilder{b: NewTableBuilder(t)}
	for _, i := range order {
		ib.AppendRecord(&recs[i])
	}
	return ib
}

// Append digests tx into the builder's table and appends its record; see
// AppendRecord.
func (ib *IncrementalBuilder) Append(tx httpstream.Transaction) bool {
	r := ib.b.digest(&tx)
	return ib.AppendRecord(&r)
}

// AppendRecord ingests one record of the builder's table in O(1)
// amortized time. It reports false — leaving the WCG untouched — when r
// arrives out of request-time order, in which case the caller reseeds.
func (ib *IncrementalBuilder) AppendRecord(r *Record) bool {
	if ib.count > 0 && r.ReqTime < ib.lastReq {
		return false
	}
	ib.b.AddRecord(r)
	ib.lastReq = r.ReqTime
	ib.count++
	return true
}

// Len returns the number of transactions appended so far.
func (ib *IncrementalBuilder) Len() int { return ib.count }

// Live returns the live, un-finalized WCG. Conversation stages and node
// roles are not assigned — none of the 37 features read them — and the
// graph mutates on the next append; callers must not retain it across
// appends (FromRecords over the same prefix builds a stable copy).
func (ib *IncrementalBuilder) Live() *WCG { return ib.b.w }

// Finalize assigns conversation stages and node roles and returns the
// live WCG. The builder stays usable: later appends grow the same graph
// and a later Finalize re-runs the (idempotent) finalization.
func (ib *IncrementalBuilder) Finalize() *WCG { return ib.b.WCG() }
