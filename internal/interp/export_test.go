package interp

import "errors"

// Test-only hooks: exported for this package's tests, with no
// caller in the program.

// IsResourceTrap reports whether err is a fuel, memory or call-depth
// trap — the traps whose trigger point legitimately differs between two
// equivalent programs (a rolled loop executes more instructions than its
// straight-line original).
func IsResourceTrap(err error) bool {
	var t *Trap
	return errors.As(err, &t) && (t.Kind == TrapStepLimit || t.Kind == TrapMemLimit || t.Kind == TrapCallDepth)
}

// Mem returns the backing memory up to the last allocation. Tests use
// it to compare final state.
func (in *Interp) Mem() []byte {
	if len(in.spans) == 0 {
		return in.mem[:0]
	}
	return in.mem[:in.spans[len(in.spans)-1].end]
}
