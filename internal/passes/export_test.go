package passes

import "rolag/internal/ir"

// Test-only hooks: exported for this package's tests, with no
// caller in the program.

// RunFunc applies the pipeline to one function, returning whether any
// pass changed it. Analyses are cached across passes through a private
// analysis.Manager and invalidated whenever a pass reports a change.
func (p *Pipeline) RunFunc(f *ir.Func) bool {
	return p.RunFuncSandboxed(f, nil)
}
