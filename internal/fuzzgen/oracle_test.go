package fuzzgen

import (
	"strings"
	"testing"

	"rolag"
	"rolag/internal/interp"
	"rolag/internal/ir"
)

// baselineFor records the canonical module's observations the way
// Oracle.Check does before entering the variant loop.
func baselineFor(t *testing.T, o *Oracle, h *interp.Harness, m *ir.Module) map[string][]runResult {
	t.Helper()
	base := map[string][]runResult{}
	for _, fn := range m.Funcs {
		if fn.IsDecl() {
			continue
		}
		rs := make([]runResult, o.seeds())
		for s := range rs {
			obs, err := h.Run(m, fn.Name, int64(s)+1)
			rs[s] = runResult{obs: obs, err: err}
		}
		base[fn.Name] = rs
	}
	return base
}

func TestOracleCleanOnGeneratedCorpus(t *testing.T) {
	o := &Oracle{Seeds: 2}
	for seed := int64(0); seed < 12; seed++ {
		src := Generate(seed, int(seed%40)+8)
		fail, exercised := o.Check(src)
		if !exercised {
			t.Fatalf("seed %d: generated program did not compile", seed)
		}
		if fail != nil {
			t.Fatalf("seed %d: %v\n%s", seed, fail, src)
		}
	}
}

func TestOracleStrictCompileFailure(t *testing.T) {
	o := &Oracle{}
	fail, exercised := o.Check("int fz(int x) { return (; }")
	if !exercised || fail == nil || fail.Class != ClassCompile {
		t.Fatalf("want strict compile failure, got %v (exercised=%v)", fail, exercised)
	}
}

func TestOracleSkipsNonCompiling(t *testing.T) {
	o := &Oracle{SkipCompileErrors: true}
	fail, exercised := o.Check("this is not C at all {{{")
	if exercised || fail != nil {
		t.Fatalf("want skip, got %v (exercised=%v)", fail, exercised)
	}
}

func TestCheckEquivCatchesMiscompile(t *testing.T) {
	orig := canonical(t, "int g_r; int fz(int x) { g_r = x; return x + 1; }", "a")
	bad := canonical(t, "int g_r; int fz(int x) { g_r = x; return x + 2; }", "b")
	o := &Oracle{Seeds: 2}
	h := &interp.Harness{MaxSteps: o.maxSteps()}
	base := baselineFor(t, o, h, orig)
	fail := o.checkEquiv("test", orig, bad, base, h)
	if fail == nil || fail.Class != ClassEquiv {
		t.Fatalf("want equiv failure, got %v", fail)
	}
	if !strings.Contains(fail.Detail, "@fz") {
		t.Fatalf("failure should name the function: %v", fail)
	}
}

func TestCheckEquivTrapPolicy(t *testing.T) {
	// Original traps (division by a folded zero): the seed is undefined
	// behaviour in the source language, so nothing is checkable —
	// whatever the transformed module does, the comparison is skipped.
	orig := canonical(t, "int fz(int x) { return 7 / (x - x); }", "a")
	clean := canonical(t, "int fz(int x) { return 0; }", "b")
	o := &Oracle{Seeds: 2}
	h := &interp.Harness{MaxSteps: o.maxSteps()}
	base := baselineFor(t, o, h, orig)
	if fail := o.checkEquiv("test", orig, clean, base, h); fail != nil {
		t.Fatalf("trapping baseline must skip, got %v", fail)
	}
	if fail := o.checkEquiv("self", orig, orig, base, h); fail != nil {
		t.Fatalf("self-comparison of a trapping program must pass: %v", fail)
	}
	// The strict direction: transformed traps where the original runs
	// clean is always a miscompile.
	cleanBase := baselineFor(t, o, h, clean)
	fail := o.checkEquiv("test", clean, orig, cleanBase, h)
	if fail == nil || fail.Class != ClassEquiv {
		t.Fatalf("want new-trap failure, got %v", fail)
	}
}

func TestCheckCostCatchesDishonestResult(t *testing.T) {
	src := Generate(3, 30)
	m := canonical(t, src, "cost")
	res, err := rolag.Optimize(ir.CloneModule(m), rolag.Config{Opt: rolag.OptRoLAG})
	if err != nil {
		t.Fatal(err)
	}
	o := &Oracle{}
	v := Variant{Name: "rolag", Opt: rolag.OptRoLAG}
	if fail := o.checkCost(v, m, res); fail != nil {
		t.Fatalf("honest result flagged: %v", fail)
	}
	res.SizeAfter++
	fail := o.checkCost(v, m, res)
	if fail == nil || fail.Class != ClassCost {
		t.Fatalf("want cost failure, got %v", fail)
	}
}

func TestCheckBackendCleanAndCounted(t *testing.T) {
	// Every generated program's pipeline outputs must lower and encode
	// deterministically; checkBackend also runs inside Oracle.Check, so
	// the clean-corpus test exercises it end to end. Here, pin the
	// direct contract plus the failure counter.
	src := Generate(7, 30)
	m := canonical(t, src, "be")
	res, err := rolag.Optimize(ir.CloneModule(m), rolag.Config{Opt: rolag.OptRoLAG})
	if err != nil {
		t.Fatal(err)
	}
	if fail := checkBackend("rolag", res.Module); fail != nil {
		t.Fatalf("clean module flagged: %v", fail)
	}

	before := Snapshot()
	countFailure(ClassBackend)
	after := Snapshot()
	if after.FailBackend != before.FailBackend+1 {
		t.Errorf("FailBackend = %d, want %d", after.FailBackend, before.FailBackend+1)
	}
	if after.Failures != before.Failures+1 {
		t.Errorf("Failures = %d, want %d", after.Failures, before.Failures+1)
	}
}

func TestCountersAdvance(t *testing.T) {
	before := Snapshot()
	o := &Oracle{Seeds: 1, SkipCompileErrors: true}
	o.Check("not C")
	o.Check(Generate(1, 10))
	after := Snapshot()
	if after.Skipped <= before.Skipped {
		t.Error("skip counter did not advance")
	}
	if after.Execs <= before.Execs {
		t.Error("exec counter did not advance")
	}
}

func TestFailureError(t *testing.T) {
	f := &Failure{Class: ClassEquiv, Variant: "rolag", Detail: "boom"}
	if got := f.Error(); !strings.Contains(got, "equiv") || !strings.Contains(got, "rolag") {
		t.Errorf("unhelpful error string %q", got)
	}
	g := &Failure{Class: ClassEquiv, Variant: "rolag", Detail: "other"}
	if !f.SameBug(g) {
		t.Error("same class+variant should be the same bug")
	}
	if f.SameBug(&Failure{Class: ClassCost, Variant: "rolag"}) {
		t.Error("different class is a different bug")
	}
}

// canonical compiles mini-C src and runs the canonicalization pipeline,
// with no rolling applied.
func canonical(t *testing.T, src, name string) *ir.Module {
	t.Helper()
	res, err := rolag.Build(src, rolag.Config{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return res.Module
}
