package ir

// Test-only hooks: exported for this package's tests, with no
// caller in the program.

// BitcastLossless reports whether a value of type a can be reinterpreted
// as type b without loss: the types have the same size and both are
// scalar (integer, float or pointer) types. This is the type-equivalence
// relation used by the alignment strategy (§IV.B of the paper).
func BitcastLossless(a, b Type) bool {
	if a.Equal(b) {
		return true
	}
	scalar := func(t Type) bool { return IsInt(t) || IsFloat(t) || IsPointer(t) }
	return scalar(a) && scalar(b) && a.Size() == b.Size()
}
