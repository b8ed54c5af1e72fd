package rolag_test

// Driver-level edge cases: rollback of unprofitable attempts, retry with
// later seed groups, module-global hygiene, and repeated rolling.

import (
	"strings"
	"testing"

	"rolag/internal/interp"
	"rolag/internal/rolag"
)

// TestUnprofitableRollbackRestoresExactly: a rejected roll must leave the
// function text identical to before the attempt and must not leak
// constant-pool globals into the module.
func TestUnprofitableRollbackRestoresExactly(t *testing.T) {
	// Two stores: always unprofitable (verified by TestProfitabilityGate).
	src := `void f(long *a) { a[0] = 1009; a[1] = 5023; }`
	work := compile(t, src)
	before := work.String()
	nGlobals := len(work.Globals)
	stats := rolag.RollModule(work, nil)
	if stats.LoopsRolled != 0 {
		t.Fatalf("expected rejection, rolled %d", stats.LoopsRolled)
	}
	if got := work.String(); got != before {
		t.Errorf("rollback altered the module:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
	if len(work.Globals) != nGlobals {
		t.Errorf("rollback leaked %d globals", len(work.Globals)-nGlobals)
	}
}

// TestSecondGroupRollsAfterFirstFails: when the biggest seed group is
// rejected, the driver must fall through to smaller groups rather than
// give up on the block.
func TestSecondGroupRollsAfterFirstFails(t *testing.T) {
	// Group 1 (8 stores to `a` with irregular dynamic values through a
	// may-aliasing pointer pattern that blocks scheduling) precedes
	// group 2 (6 clean stores to `b`).
	src := `
void f(int *a, int *b, int v, int w, int x, int y) {
	a[1] = a[0] + v;
	a[0] = a[1] + w;
	a[3] = a[2] + x;
	a[2] = a[3] + y;
	b[0] = v; b[1] = v; b[2] = v; b[3] = v; b[4] = v; b[5] = v;
}`
	orig, work, stats := roll(t, src, nil)
	if stats.LoopsRolled < 1 {
		t.Fatalf("no group rolled:\n%s", work.FindFunc("f"))
	}
	// The rolled loop must be over b (the clean group).
	text := work.FindFunc("f").String()
	if !strings.Contains(text, "roll.loop") {
		t.Fatalf("no rolled loop:\n%s", text)
	}
	mustEquiv(t, orig, work, "f")
}

// TestBothHalvesOfSplitBlockRoll: rolling one group splits the block;
// seeds left in the preheader and the exit must still be found.
func TestBothHalvesOfSplitBlockRoll(t *testing.T) {
	src := `
extern void sink(int x);
void f(int *a, int v) {
	sink(v); sink(v + 5); sink(v + 10); sink(v + 15); sink(v + 20); sink(v + 25);
	a[0] = v * 2; a[1] = v * 4; a[2] = v * 6; a[3] = v * 8; a[4] = v * 10; a[5] = v * 12;
}`
	orig, work, stats := roll(t, src, nil)
	if stats.LoopsRolled != 2 {
		t.Fatalf("rolled %d loops, want 2 (calls + stores):\n%s", stats.LoopsRolled, work.FindFunc("f"))
	}
	mustEquiv(t, orig, work, "f")
}

// TestRollModuleMultipleFunctions: statistics accumulate across
// functions and each function is transformed independently.
func TestRollModuleMultipleFunctions(t *testing.T) {
	src := `
void f1(int *a) { a[0] = 2; a[1] = 4; a[2] = 6; a[3] = 8; a[4] = 10; a[5] = 12; }
void f2(int *a, int v) { a[0] = v; a[1] = v; a[2] = v; a[3] = v; a[4] = v; a[5] = v; }
int f3(int x) { return x * 2; }
`
	orig, work, stats := roll(t, src, nil)
	if stats.LoopsRolled != 2 {
		t.Errorf("rolled %d loops, want 2", stats.LoopsRolled)
	}
	for _, fn := range []string{"f1", "f2", "f3"} {
		mustEquiv(t, orig, work, fn)
	}
}

// TestIdempotentReRoll: running RoLAG twice must not undo, re-roll or
// corrupt anything (the second run sees loops, not straight-line code).
func TestIdempotentReRoll(t *testing.T) {
	src := `void f(int *a) { a[0]=1; a[1]=3; a[2]=5; a[3]=7; a[4]=9; a[5]=11; a[6]=13; a[7]=15; }`
	orig := compile(t, src)
	work := compile(t, src)
	s1 := rolag.RollModule(work, nil)
	if s1.LoopsRolled != 1 {
		t.Fatalf("first run rolled %d", s1.LoopsRolled)
	}
	after1 := work.String()
	s2 := rolag.RollModule(work, nil)
	if s2.LoopsRolled != 0 {
		t.Errorf("second run rolled %d more loops", s2.LoopsRolled)
	}
	if work.String() != after1 {
		t.Error("second run mutated the module")
	}
	mustEquiv(t, orig, work, "f")
}

// TestEmptyAndDeclFunctions: degenerate inputs are handled quietly.
func TestEmptyAndDeclFunctions(t *testing.T) {
	src := `
extern int ext(int x);
void empty() { }
int fwd(int x);
int fwd(int x) { return ext(x); }
`
	work := compile(t, src)
	stats := rolag.RollModule(work, nil)
	if stats.LoopsRolled != 0 {
		t.Errorf("nothing should roll: %+v", stats)
	}
	if err := work.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRollPreservesCallOrderAcrossGroups: two call groups with different
// callees interleaved 3-and-3; joint rolling (or refusal) must preserve
// the observable call order exactly.
func TestRollPreservesCallOrderAcrossGroups(t *testing.T) {
	src := `
extern void alpha(int x);
extern void beta(int x);
void f(int v) {
	alpha(v);     beta(v + 100);
	alpha(v + 1); beta(v + 200);
	alpha(v + 2); beta(v + 300);
}`
	orig, work, _ := roll(t, src, nil)
	mustEquiv(t, orig, work, "f")
	h := &interp.Harness{}
	o, err := h.Run(work, "f", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "alpha", "beta", "alpha", "beta"}
	if len(o.Trace) != len(want) {
		t.Fatalf("trace has %d calls, want %d", len(o.Trace), len(want))
	}
	for i, ev := range o.Trace {
		if ev.Callee != want[i] {
			t.Errorf("call %d: %s, want %s", i, ev.Callee, want[i])
		}
	}
}
