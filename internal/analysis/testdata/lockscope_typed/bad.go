// Fixture: every line marked `want` must be flagged by the lockscope
// rules that need go/types object identity to resolve.
package fixtures

import "sync"

type valueBox struct {
	mu sync.Mutex
	// guarded by mu
	n int
}

// Bump locks through a value receiver: the receiver is a copy, so the
// lock protects nothing the caller can see.
func (v valueBox) Bump() {
	v.mu.Lock() // want "value receiver"
	v.n++
	v.mu.Unlock()
}

type holder struct {
	mu sync.Mutex
	// guarded by mu
	count int
}

// copyDetached locks the original but mutates a detached value copy —
// the typed analyzer refuses to treat a struct copy as an alias.
func copyDetached(h *holder) {
	c := *h
	h.mu.Lock()
	defer h.mu.Unlock()
	c.count++ // want "never locks"
}
