package reduce_test

import (
	"errors"
	"strings"
	"testing"

	"rolag/internal/cc"
	"rolag/internal/fuzzgen"
	"rolag/internal/interp"
	"rolag/internal/passes"
	"rolag/internal/reduce"
)

// divTraps is the reduction predicate for the planted bug: the program
// still compiles and @fz still traps with division by zero on the
// first harness seed.
func divTraps(src string) bool {
	m, err := cc.Compile(src, "red")
	if err != nil {
		return false
	}
	passes.Standard().Run(m)
	if m.Verify() != nil || m.FindFunc("fz") == nil {
		return false
	}
	h := &interp.Harness{MaxSteps: 1_000_000}
	_, rerr := h.Run(m, "fz", 1)
	var tr *interp.Trap
	return errors.As(rerr, &tr) && tr.Kind == interp.TrapDivByZero
}

// plantBug inserts a division by a folded zero into a generated
// program, burying one interesting statement in dozens of irrelevant
// ones — the scenario the reducer exists for.
func plantBug(seed int64) string {
	src := fuzzgen.Generate(seed, 60)
	return strings.Replace(src, "\tint acc = x;\n",
		"\tint acc = x;\n\tacc = acc + 7 / (x - x);\n", 1)
}

func TestMinimizeShrinksKnownBadProgram(t *testing.T) {
	src := plantBug(42)
	if !divTraps(src) {
		t.Fatalf("planted program does not trap:\n%s", src)
	}
	before := reduce.Statements(src)
	min := reduce.Minimize(src, divTraps)
	after := reduce.Statements(min)
	if !divTraps(min) {
		t.Fatalf("minimized program lost the failure:\n%s", min)
	}
	if after > 10 {
		t.Fatalf("minimized to %d statements (from %d), want <= 10:\n%s", after, before, min)
	}
	if after >= before {
		t.Fatalf("no shrinkage: %d -> %d", before, after)
	}
	t.Logf("shrank %d -> %d statements:\n%s", before, after, min)
}

func TestMinimizeRejectsNonFailingInput(t *testing.T) {
	src := fuzzgen.Generate(7, 30) // no planted bug
	if got := reduce.Minimize(src, divTraps); got != src {
		t.Fatal("input not satisfying the predicate must be returned unchanged")
	}
}

func TestMinimizeIsDeterministic(t *testing.T) {
	src := plantBug(9)
	a := reduce.Minimize(src, divTraps)
	b := reduce.Minimize(src, divTraps)
	if a != b {
		t.Fatal("two reductions of the same input differ")
	}
}

func TestStatements(t *testing.T) {
	if n := reduce.Statements("int g;\nint f() {\n\tint a = 1;\n\treturn a;\n}\n"); n != 3 {
		t.Fatalf("Statements = %d, want 3", n)
	}
}
