package passes_test

import (
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"rolag/internal/analysis"
	"rolag/internal/faultpoint"
	"rolag/internal/ir"
	"rolag/internal/passes"
)

const sandboxSrc = `
int f(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += i * 3 + 1;
	return s;
}`

func lowerF(t *testing.T) (*ir.Module, *ir.Func) {
	t.Helper()
	m := lower(t, sandboxSrc)
	return m, m.FindFunc("f")
}

func TestSandboxPanicRollsBack(t *testing.T) {
	_, f := lowerF(t)
	before := f.String()
	sb := &passes.Sandbox{}
	changed, ok := sb.RunShadow("boom", f, func(sf *ir.Func) bool {
		sf.Blocks = nil // half-done mutation the rollback must discard
		panic("kaboom")
	})
	if changed || ok {
		t.Fatalf("panicking pass committed: changed=%v ok=%v", changed, ok)
	}
	if got := f.String(); got != before {
		t.Fatalf("function mutated after rollback:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	rep := sb.Report()
	if rep == nil || len(rep.Skips) != 1 {
		t.Fatalf("want one skip, got %v", rep)
	}
	sk := rep.Skips[0]
	if sk.Pass != "boom" || sk.Func != "f" || sk.Reason != passes.SkipPanic {
		t.Fatalf("bad skip record: %+v", sk)
	}
	if !strings.Contains(sk.Detail, "kaboom") {
		t.Fatalf("skip detail lost the panic value: %q", sk.Detail)
	}
}

func TestSandboxVerifyFailureRollsBack(t *testing.T) {
	_, f := lowerF(t)
	before := f.String()
	sb := &passes.Sandbox{}
	_, ok := sb.RunShadow("corrupter", f, func(sf *ir.Func) bool {
		// Drop the entry block's terminator: the verifier must refuse it.
		b := sf.Blocks[0]
		b.Instrs = b.Instrs[:len(b.Instrs)-1]
		return true
	})
	if ok {
		t.Fatal("verifier-rejected pass committed")
	}
	if got := f.String(); got != before {
		t.Fatal("function kept verifier-rejected mutation")
	}
	rep := sb.Report()
	if rep == nil || rep.Skips[0].Reason != passes.SkipVerify {
		t.Fatalf("want verify skip, got %v", rep)
	}
}

func TestSandboxCommitMatchesDirectRun(t *testing.T) {
	_, sandboxed := lowerF(t)
	_, direct := lowerF(t)

	sb := &passes.Sandbox{}
	changed, ok := sb.RunShadow("mem2reg", sandboxed, passes.Mem2Reg)
	if !ok || !changed {
		t.Fatalf("healthy pass did not commit: changed=%v ok=%v", changed, ok)
	}
	if sb.Report() != nil {
		t.Fatalf("clean run produced a report: %v", sb.Report())
	}
	if !passes.Mem2Reg(direct) {
		t.Fatal("direct Mem2Reg reported no change")
	}
	if sandboxed.String() != direct.String() {
		t.Fatalf("sandboxed commit diverged from direct run:\nsandboxed:\n%s\ndirect:\n%s",
			sandboxed, direct)
	}
}

// vetoGuard refuses one pass and records Report calls.
type vetoGuard struct {
	veto    string
	reports []string
}

func (g *vetoGuard) Allow(pass string) bool { return pass != g.veto }
func (g *vetoGuard) Report(pass string, ok bool) {
	g.reports = append(g.reports, pass)
}

func TestSandboxGuardVeto(t *testing.T) {
	_, f := lowerF(t)
	g := &vetoGuard{veto: "licm"}
	sb := &passes.Sandbox{Guard: g}
	ran := false
	_, ok := sb.RunShadow("licm", f, func(*ir.Func) bool { ran = true; return true })
	if ok || ran {
		t.Fatalf("vetoed pass ran: ok=%v ran=%v", ok, ran)
	}
	rep := sb.Report()
	if rep == nil || rep.Skips[0].Reason != passes.SkipBreaker {
		t.Fatalf("want breaker skip, got %v", rep)
	}
	if len(g.reports) != 0 {
		t.Fatalf("Report called for a refused execution: %v", g.reports)
	}
	// A permitted pass still reports its outcome.
	if _, ok := sb.RunShadow("mem2reg", f, passes.Mem2Reg); !ok {
		t.Fatal("permitted pass did not commit")
	}
	if len(g.reports) != 1 || g.reports[0] != "mem2reg" {
		t.Fatalf("want one report for mem2reg, got %v", g.reports)
	}
}

func TestRunInPlaceRollsBackGlobals(t *testing.T) {
	m, f := lowerF(t)
	before := f.String()
	nGlobals := len(m.Globals)
	sb := &passes.Sandbox{}
	_, ok := sb.RunInPlaceIn("rolag", f, m, func(tf *ir.Func) bool {
		m.Globals = append(m.Globals, &ir.Global{Name: "junk", Elem: ir.I32, Parent: m})
		panic("codegen died")
	})
	if ok {
		t.Fatal("panicking in-place pass committed")
	}
	if len(m.Globals) != nGlobals {
		t.Fatalf("appended globals survived rollback: %d -> %d", nGlobals, len(m.Globals))
	}
	if got := f.String(); got != before {
		t.Fatal("function body not restored by in-place rollback")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("module broken after rollback: %v", err)
	}
}

// TestRollbackRewindsGlobalNames: a rolled-back pass leaves no trace in
// global names. The failed pass asks the module's unique-name counter
// for two "roll.cdata" names (the module already holds one, so both get
// a ".N" suffix) and then panics; a committed pass that follows must
// get exactly the names it gets when the failed pass never ran.
func TestRollbackRewindsGlobalNames(t *testing.T) {
	addTables := func(m *ir.Module) {
		m.NewGlobal("roll.cdata", ir.I32, nil)
		m.NewGlobal("roll.cdata", ir.I32, nil)
	}
	names := func(withFailure bool) []string {
		m, f := lowerF(t)
		m.NewGlobal("roll.cdata", ir.I32, nil)
		n := len(m.Globals)
		sb := &passes.Sandbox{}
		if withFailure {
			if _, ok := sb.RunInPlaceIn("rolag", f, m, func(*ir.Func) bool {
				addTables(m)
				panic("codegen died")
			}); ok {
				t.Fatal("panicking pass committed")
			}
		}
		if _, ok := sb.RunInPlaceIn("rolag", f, m, func(*ir.Func) bool {
			addTables(m)
			return true
		}); !ok {
			t.Fatal("healthy pass did not commit")
		}
		var out []string
		for _, g := range m.Globals[n:] {
			out = append(out, g.Name)
		}
		return out
	}
	want, got := names(false), names(true)
	if len(want) != 2 || want[0] == "roll.cdata" || want[1] == "roll.cdata" {
		t.Fatalf("baseline names %v: want two suffixed roll.cdata names", want)
	}
	if !slices.Equal(got, want) {
		t.Errorf("after a rolled-back pass the committed pass named its globals %v, want %v", got, want)
	}
}

// TestRunInPlaceBudgetOverrun: the budget is applied after the pass
// returns. An over-budget execution, module-pure or globals-appending,
// is rolled back with SkipTimeout and leaves f and the module as they
// were.
func TestRunInPlaceBudgetOverrun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		globals bool
	}{{"pure", false}, {"globals", true}} {
		t.Run(tc.name, func(t *testing.T) {
			m, f := lowerF(t)
			before := f.String()
			nGlobals := len(m.Globals)
			sb := &passes.Sandbox{Budget: time.Millisecond}
			slow := func(tf *ir.Func) bool {
				tf.Blocks = tf.Blocks[:1]
				if tc.globals {
					m.Globals = append(m.Globals, &ir.Global{Name: "junk", Elem: ir.I32, Parent: m})
				}
				time.Sleep(20 * time.Millisecond)
				return true
			}
			var ok bool
			if tc.globals {
				_, ok = sb.RunInPlaceIn("rolag", f, m, slow)
			} else {
				_, ok = sb.RunShadow("licm", f, slow)
			}
			if ok {
				t.Fatal("over-budget pass committed")
			}
			rep := sb.Report()
			if rep == nil || len(rep.Skips) != 1 || rep.Skips[0].Reason != passes.SkipTimeout {
				t.Fatalf("want one timeout skip, got %v", rep)
			}
			if f.String() != before {
				t.Fatal("function mutated by rolled-back over-budget pass")
			}
			if len(m.Globals) != nGlobals {
				t.Fatalf("appended globals survived rollback: %d -> %d", nGlobals, len(m.Globals))
			}
		})
	}
}

// TestNilSandboxIsFailHard: a nil *Sandbox runs the pass on f itself,
// reports nothing, and lets the pass's panic propagate.
func TestNilSandboxIsFailHard(t *testing.T) {
	_, f := lowerF(t)
	var sb *passes.Sandbox
	var ran *ir.Func
	changed, ok := sb.RunShadow("direct", f, func(tf *ir.Func) bool { ran = tf; return true })
	if ran != f || !changed || !ok {
		t.Fatalf("nil sandbox did not run the pass on f: ran=%p f=%p changed=%v ok=%v", ran, f, changed, ok)
	}
	if sb.Report() != nil {
		t.Fatalf("nil sandbox reported %v", sb.Report())
	}
	defer func() {
		if r := recover(); r != "kaboom" {
			t.Fatalf("want the pass's panic to propagate, recovered %v", r)
		}
	}()
	sb.RunInPlaceIn("boom", f, f.Parent, func(*ir.Func) bool { panic("kaboom") })
	t.Fatal("nil sandbox swallowed the panic")
}

// TestRollbackPreservesIdentityUnderFaults injects every fault kind at
// a real pass and checks that the rollback puts the very same
// instruction objects back, printing byte-identically, so an analysis
// index taken before the execution still describes the function.
func TestRollbackPreservesIdentityUnderFaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   faultpoint.Kind
		reason passes.SkipReason
	}{
		{"panic", faultpoint.KindPanic, passes.SkipPanic},
		{"error", faultpoint.KindError, passes.SkipError},
		{"corrupt", faultpoint.KindCorrupt, passes.SkipVerify},
		{"stall", faultpoint.KindStall, passes.SkipTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultpoint.Reset()
			faultpoint.Enable(faultpoint.Options{Stall: 60 * time.Millisecond})
			faultpoint.Arm("pass:mem2reg", tc.kind, 1)
			sb := &passes.Sandbox{}
			if tc.kind == faultpoint.KindStall {
				sb.Budget = 10 * time.Millisecond
			}
			_, f := lowerF(t)
			before := f.String()
			var instrs []*ir.Instr
			for _, b := range f.Blocks {
				instrs = append(instrs, b.Instrs...)
			}
			idx := analysis.NewManager().Info(f).Index()

			if _, ok := sb.RunShadow("mem2reg", f, passes.Mem2Reg); ok {
				t.Fatal("faulted execution committed")
			}
			if rep := sb.Report(); rep == nil || rep.Skips[0].Reason != tc.reason {
				t.Fatalf("want a %s skip, got %v", tc.reason, rep)
			}
			if got := f.String(); got != before {
				t.Fatalf("rolled-back body differs:\n%s\nvs\n%s", got, before)
			}
			var got []*ir.Instr
			for _, b := range f.Blocks {
				got = append(got, b.Instrs...)
			}
			if len(got) != len(instrs) {
				t.Fatalf("rolled back to %d instructions, want %d", len(got), len(instrs))
			}
			for i := range got {
				if got[i] != instrs[i] {
					t.Fatalf("instruction %d (%s) is not the original object", i, got[i])
				}
			}
			if fresh := analysis.NewManager().Info(f).Index(); !maps.Equal(idx, fresh) {
				t.Fatal("index taken before the execution no longer describes the function")
			}
		})
	}
}

// TestPipelineRollbackInvalidatesAnalyses: a RunInfo pass that mutates
// f, caches an analysis of the mutated body and then panics is rolled
// back, so a later RunInfo pass must not read analyses cached during the
// failed execution. The dominator tree "boom" cached of its one-block
// body would confine CSE to the entry block and miss the loop body's
// redundancy.
func TestPipelineRollbackInvalidatesAnalyses(t *testing.T) {
	const src = `
void g(int *a, int *b, int x, int y, int n) {
	for (int i = 0; i < n; i++) {
		a[i] = x * y + 1;
		b[i] = x * y + 2;
	}
}`
	boom := passes.FuncPass{Name: "boom", Run: func(*ir.Func) bool { return false },
		RunInfo: func(f *ir.Func, fi *analysis.FuncInfo) bool {
			f.Blocks = f.Blocks[:1]
			fi.Dom()
			panic("kaboom")
		}}
	cse := passes.FuncPass{Name: "cse", Run: passes.CSE, RunInfo: passes.CSEInfo}
	mem2reg := passes.FuncPass{Name: "mem2reg", Run: passes.Mem2Reg}
	run := func(ps ...passes.FuncPass) (string, *passes.Degraded) {
		m := lower(t, src)
		sb := &passes.Sandbox{}
		(&passes.Pipeline{Passes: ps}).RunSandboxed(m, sb)
		return m.String(), sb.Report()
	}
	promoted, _ := run(mem2reg)
	want, rep := run(mem2reg, cse)
	if rep != nil || want == promoted {
		t.Fatalf("reference pipeline degraded (%v) or CSE found nothing to do", rep)
	}
	got, rep := run(mem2reg, boom, cse)
	if rep == nil || len(rep.Skips) != 1 || rep.Skips[0].Pass != "boom" {
		t.Fatalf("want exactly the boom skip, got %v", rep)
	}
	if got != want {
		t.Fatalf("rolled-back pass changed the pipeline's result:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestDegradedPassesSortedDistinct(t *testing.T) {
	d := &passes.Degraded{Skips: []passes.Skip{
		{Pass: "rolag", Func: "a"},
		{Pass: "licm", Func: "b"},
		{Pass: "rolag", Func: "c"},
	}}
	got := d.Passes()
	if len(got) != 2 || got[0] != "licm" || got[1] != "rolag" {
		t.Fatalf("Passes() = %v, want [licm rolag]", got)
	}
}
