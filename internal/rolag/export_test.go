package rolag

import (
	"strconv"
	"strings"

	"rolag/internal/ir"
)

// PricedAttempt is one roll attempt that passed scheduling, priced
// both ways on the unchanged body.
type PricedAttempt struct {
	Func string
	// Bound is rollBound's lower bound on the cost delta; Delta is the
	// exact delta of generating the loop, as tryRoll prices it.
	Bound, Delta int
	// Burned is f's name counter after burnCodegenNames; Generated is
	// the counter after GenerateLoop.
	Burned, Generated int
}

// WatchPricing passes every roll attempt that passes scheduling to see
// until the returned stop function is called. Each attempt is priced
// and generated under checkpoints that are restored before the attempt
// goes on, so the run itself is unchanged.
func WatchPricing(see func(PricedAttempt)) (stop func()) {
	testHookPriced = func(f *ir.Func, b *ir.Block, g *Graph, sched *Schedule, opts *Options, bound int) {
		a := PricedAttempt{Func: f.Name, Bound: bound}
		var ck ir.Checkpoint
		ck.Take(f)
		burnCodegenNames(f, b, g, sched)
		a.Burned = nameCounter(f)
		ck.Restore()

		m := f.Parent
		gmark := m.MarkGlobals()
		rodataBefore := rodataSize(m)
		costBefore := opts.Model.Func(f)
		ck.Take(f)
		GenerateLoop(f, b, g, sched, opts)
		a.Delta = opts.Model.Func(f) + rodataSize(m) - rodataBefore - costBefore
		a.Generated = nameCounter(f)
		ck.Restore()
		m.ResetGlobals(gmark)
		see(a)
	}
	return func() { testHookPriced = nil }
}

// nameCounter reads f's name counter from the name f.UniqueName gives
// a base that is taken and has no numbered variant, then undoes the
// probe.
func nameCounter(f *ir.Func) int {
	const probe = "counter.probe"
	var ck ir.Checkpoint
	ck.Take(f)
	f.InsertBlock(len(f.Blocks), &ir.Block{Name: probe})
	n, err := strconv.Atoi(strings.TrimPrefix(f.UniqueName(probe), probe))
	ck.Restore()
	if err != nil {
		panic(err)
	}
	return n - 1
}
