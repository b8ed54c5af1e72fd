package analysis

import "rolag/internal/ir"

// Test-only hooks: exported for this package's tests, with no
// caller in the program.

// InvalidateAll drops the whole cache.
func (am *Manager) InvalidateAll() {
	clear(am.infos)
}

// Dominates reports whether a dominates b.
func (di *DomInfo) Dominates(a, b *ir.Block) bool {
	return di.tree.Dominates(a, b)
}
