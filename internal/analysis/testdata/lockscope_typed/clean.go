// Fixture: nothing in this file may be flagged. In the pointer-alias
// cases a textual receiver match would report a false positive; object
// resolution matches the alias and the original up.
package fixtures

import "sync"

type aliasBox struct {
	mu sync.Mutex
	// guarded by mu
	hits int
}

// pointerAlias locks through the original and touches the guarded field
// through a pointer alias.
func pointerAlias(b *aliasBox) {
	alias := b
	b.mu.Lock()
	defer b.mu.Unlock()
	alias.hits++
}

// aliasLock locks through the alias and touches through the original.
func aliasLock(b *aliasBox) {
	alias := b
	alias.mu.Lock()
	defer alias.mu.Unlock()
	b.hits++
}

// addrAlias takes the address explicitly.
func addrAlias(b *aliasBox) int {
	alias := &*b
	alias.mu.Lock()
	defer alias.mu.Unlock()
	return b.hits
}
