package passes

import (
	"rolag/internal/analysis"
	"rolag/internal/ir"
)

// FuncPass transforms one function and reports whether it changed
// anything.
type FuncPass struct {
	Name string
	Run  func(*ir.Func) bool
	// RunInfo, if set, is used instead of Run by pipelines that carry an
	// analysis cache: the pass may read cached analyses from the
	// FuncInfo and must report whether it changed the function (the
	// pipeline invalidates the cache on change, and after a sandbox
	// rollback, since the pass may have cached analyses of the body it
	// mutated before the checkpoint was restored).
	RunInfo func(*ir.Func, *analysis.FuncInfo) bool
}

// Pipeline is an ordered list of function passes applied to every
// function of a module.
type Pipeline struct {
	Passes []FuncPass
	// Verify, if set, runs the IR verifier after each pass and panics on
	// failure; used in tests.
	Verify bool
}

// Standard returns the canonicalization pipeline run after the frontend
// and before loop transformations: promote memory to registers, fold
// constants, simplify, and clean up dead code.
func Standard() *Pipeline {
	return &Pipeline{Passes: []FuncPass{
		{Name: "mem2reg", Run: Mem2Reg},
		{Name: "constfold", Run: ConstFold},
		{Name: "simplify", Run: Simplify},
		{Name: "ifconvert", Run: IfConvert},
		{Name: "cse", Run: CSE, RunInfo: CSEInfo},
		{Name: "licm", Run: LICM},
		{Name: "constfold", Run: ConstFold},
		{Name: "dce", Run: DCE},
		{Name: "simplify", Run: Simplify},
		{Name: "dce", Run: DCE},
	}}
}

// RunFunc applies the pipeline to one function, returning whether any
// pass changed it. Analyses are cached across passes through a private
// analysis.Manager and invalidated whenever a pass reports a change.
func (p *Pipeline) RunFunc(f *ir.Func) bool {
	return p.RunFuncSandboxed(f, nil)
}

// Run applies the pipeline to every function in the module.
func (p *Pipeline) Run(m *ir.Module) bool {
	return p.RunSandboxed(m, nil)
}

// RunSandboxed applies the pipeline to every function under sb (nil =
// fail-hard): each pass execution that panics, overruns the budget, or
// breaks the verifier is rolled back and recorded on the sandbox's
// report, and the remaining passes keep running from the checkpoint.
// Pass and function order do not depend on sb, so a run in which
// nothing fails produces a byte-identical module.
func (p *Pipeline) RunSandboxed(m *ir.Module, sb *Sandbox) bool {
	am := analysis.NewManager()
	changed := false
	for _, f := range m.Funcs {
		if !f.IsDecl() && p.runFunc(f, sb, am) {
			changed = true
		}
	}
	return changed
}

// RunFuncSandboxed applies the pipeline to one function under sb (nil =
// fail-hard); one job's functions share its sandbox.
func (p *Pipeline) RunFuncSandboxed(f *ir.Func, sb *Sandbox) bool {
	return p.runFunc(f, sb, analysis.NewManager())
}

func (p *Pipeline) runFunc(f *ir.Func, sb *Sandbox, am *analysis.Manager) bool {
	changed := false
	for _, ps := range p.Passes {
		run := ps.Run
		if ps.RunInfo != nil {
			run = func(f *ir.Func) bool { return ps.RunInfo(f, am.Info(f)) }
		}
		c, ok := sb.RunShadow(ps.Name, f, run)
		if c {
			changed = true
		}
		if c || !ok {
			am.Invalidate(f)
		}
		if p.Verify {
			if err := f.Verify(); err != nil {
				panic("after pass " + ps.Name + ": " + err.Error())
			}
		}
	}
	return changed
}
