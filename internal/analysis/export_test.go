package analysis

// Test-only hooks: exported for this package's tests, with no
// caller in the program.

// InvalidateAll drops the whole cache.
func (am *Manager) InvalidateAll() {
	clear(am.infos)
}
