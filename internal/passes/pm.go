package passes

import (
	"rolag/internal/analysis"
	"rolag/internal/faultpoint"
	"rolag/internal/ir"
	"rolag/internal/obs"
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

// run returns the pass body as the sandbox calls it, reading analyses
// from am when the pass has a RunInfo.
func (ps *FuncPass) run(am *analysis.Manager) func(*ir.Func) bool {
	if ps.RunInfo == nil {
		return ps.Run
	}
	return func(f *ir.Func) bool { return ps.RunInfo(f, am.Info(f)) }
}

// Pipeline is an ordered list of function passes applied to every
// function of a module.
type Pipeline struct {
	Passes []FuncPass
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

// Run applies the pipeline to every function in the module.
func (p *Pipeline) Run(m *ir.Module) bool {
	return p.RunSandboxed(m, nil)
}

// RunSandboxed applies the pipeline to every function under sb (nil =
// fail-hard). Each function's passes run as one optimistic stage: one
// checkpoint, every pass under its own recover, budget check, guard
// decision and fault draw, and one verify at the end. When a pass
// panics, overruns its budget or fails with an injected error, or the
// stage's result does not verify, the function is restored and the
// stage replayed pass by pass, each execution checkpointed and
// verified, so the culprit is rolled back and recorded on the sandbox's
// report and the remaining passes keep running. Pass and function order
// do not depend on sb, so a run in which nothing fails produces a
// byte-identical module.
func (p *Pipeline) RunSandboxed(m *ir.Module, sb *Sandbox) bool {
	am := analysis.NewManager()
	changed := false
	for _, f := range m.Funcs {
		if p.runFunc(f, sb, am) {
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
	if f.IsDecl() {
		return false
	}
	if sb == nil {
		changed := false
		for i := range p.Passes {
			if p.Passes[i].run(am)(f) {
				changed = true
				am.Invalidate(f)
			}
		}
		return changed
	}
	if changed, ok := p.runOptimistic(f, sb, am); ok {
		return changed
	}
	return p.replay(f, sb, am)
}

// runOptimistic runs the passes on f as one stage under a single
// checkpoint and a single verify. On success it reports every admitted
// visit to the guard and every refused one on the report. On failure
// it returns ok=false with f restored and its analyses invalidated; the
// decisions made so far are left in sb.visits for the replay.
func (p *Pipeline) runOptimistic(f *ir.Func, sb *Sandbox, am *analysis.Manager) (changed, ok bool) {
	sb.visits = sb.visits[:0]
	sb.ck.Take(f)
	ok = true
	for i := range p.Passes {
		ps := &p.Passes[i]
		v := sb.decide(ps.Name)
		sb.visits = append(sb.visits, v)
		if !v.allowed {
			continue
		}
		if v.fault != faultpoint.None && v.fault != faultpoint.KindStall {
			// An injected panic, error or corruption fails this visit
			// for certain; the replay enacts it under its own
			// checkpoint, and no later pass runs on a corrupted body.
			ok = false
			break
		}
		span := obs.Now()
		c, skip := sb.attempt(ps.Name, f, v, ps.run(am))
		if !span.IsZero() {
			obs.EndSpan(sb.Trace, "pass:"+ps.Name, span, f.Name)
		}
		if skip != nil {
			ok = false
			break
		}
		if c {
			changed = true
			am.Invalidate(f)
		}
	}
	if ok && f.Verify() == nil {
		for i, v := range sb.visits {
			if v.allowed {
				sb.ok(p.Passes[i].Name)
			} else {
				sb.refuse(p.Passes[i].Name, f)
			}
		}
		return changed, true
	}
	sb.ck.Restore()
	am.Invalidate(f)
	return false, false
}

// replay runs the stage again pass by pass, each execution checkpointed
// and verified. Visits the optimistic run already decided keep their
// guard decision and fault draw; the rest are decided now.
func (p *Pipeline) replay(f *ir.Func, sb *Sandbox, am *analysis.Manager) bool {
	changed := false
	for i := range p.Passes {
		ps := &p.Passes[i]
		var v visit
		if i < len(sb.visits) {
			v = sb.visits[i]
		} else {
			v = sb.decide(ps.Name)
		}
		c, ok := sb.runVisit(ps.Name, f, nil, v, ps.run(am))
		if c {
			changed = true
		}
		if c || !ok {
			am.Invalidate(f)
		}
	}
	return changed
}
