package interp_test

// Trap semantics: every way a hostile-but-verified program can misbehave
// at runtime must surface as a defined *interp.Trap, never as a Go panic
// or an unbounded hang. The fuzzing harness (internal/fuzzgen) relies on
// these guarantees to classify failures.

import (
	"errors"
	"testing"

	"rolag/internal/cc"
	"rolag/internal/interp"
	"rolag/internal/ir"
	"rolag/internal/passes"
)

func compileForTrap(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := cc.Compile(src, "trap")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Standard().Run(m)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func runTrap(t *testing.T, src, fname string, args ...interp.Val) error {
	t.Helper()
	m := compileForTrap(t, src)
	in, err := interp.New(m)
	if err != nil {
		t.Fatalf("new interp: %v", err)
	}
	in.MaxSteps = 100_000
	in.MaxMem = 1 << 20
	in.MaxDepth = 64
	_, err = in.CallFunc(m.FindFunc(fname), args)
	return err
}

func wantTrap(t *testing.T, err error, kind interp.TrapKind) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected %v trap, got success", kind)
	}
	var tr *interp.Trap
	if !errors.As(err, &tr) {
		t.Fatalf("expected %v trap, got non-trap error: %v", kind, err)
	}
	if tr.Kind != kind {
		t.Fatalf("expected %v trap, got %v (%v)", kind, tr.Kind, err)
	}
}

func TestTrapDivByZero(t *testing.T) {
	err := runTrap(t, "int f(int a, int b) { return a / b; }", "f",
		interp.IntVal(7), interp.IntVal(0))
	wantTrap(t, err, interp.TrapDivByZero)
}

func TestTrapRemByZero(t *testing.T) {
	err := runTrap(t, "int f(int a, int b) { return a % b; }", "f",
		interp.IntVal(7), interp.IntVal(0))
	wantTrap(t, err, interp.TrapDivByZero)
}

func TestTrapOutOfBoundsLoad(t *testing.T) {
	// Null-ish pointer: addresses below 16 are invalid by construction.
	err := runTrap(t, "int f(int *p) { return p[0]; }", "f", interp.IntVal(0))
	wantTrap(t, err, interp.TrapOutOfBounds)
}

func TestTrapOutOfBoundsGepStore(t *testing.T) {
	// A wildly out-of-range index through a valid local array.
	src := `
int f(int i) {
	int a[4];
	a[0] = 1;
	a[i] = 9;
	return a[0];
}`
	err := runTrap(t, src, "f", interp.IntVal(1<<40))
	wantTrap(t, err, interp.TrapOutOfBounds)
}

func TestTrapStepLimit(t *testing.T) {
	err := runTrap(t, "int f(int n) { int s = 0; for (;;) s += n; return s; }", "f",
		interp.IntVal(1))
	wantTrap(t, err, interp.TrapStepLimit)
}

func TestTrapCallDepth(t *testing.T) {
	err := runTrap(t, "int f(int n) { return f(n + 1); }", "f", interp.IntVal(0))
	wantTrap(t, err, interp.TrapCallDepth)
}

func TestTrapHarnessPropagates(t *testing.T) {
	// The seeded equivalence harness must report traps as errors rather
	// than panicking or hanging.
	m := compileForTrap(t, "int f(int a) { return 10 / (a - a); }")
	h := &interp.Harness{MaxSteps: 10_000}
	_, err := h.Run(m, "f", 1)
	wantTrap(t, err, interp.TrapDivByZero)
}

func TestIsResourceTrap(t *testing.T) {
	if !interp.IsResourceTrap(&interp.Trap{Kind: interp.TrapStepLimit}) {
		t.Error("step limit should be a resource trap")
	}
	if interp.IsResourceTrap(&interp.Trap{Kind: interp.TrapDivByZero}) {
		t.Error("division by zero is not a resource trap")
	}
}
