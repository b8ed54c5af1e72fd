package rolag

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"rolag/internal/analysis"
	"rolag/internal/ir"
)

// CollectSeedGroups scans a basic block and returns the seed groups
// ordered by descending lane count (bigger rolls first), breaking ties by
// first-seed position.
func CollectSeedGroups(b *ir.Block, opts *Options) []*SeedGroup {
	return collectSeedGroupsInfo(b, opts, analysis.NewManager().Info(b.Parent))
}

// TryJoin attempts to combine seed groups that alternate in position into
// one joint group (§IV.C6). It returns the groups to roll together in
// body order, or nil when g cannot be joined.
func TryJoin(b *ir.Block, g *SeedGroup, others []*SeedGroup) []*SeedGroup {
	return tryJoinIdx(b, g, others, positions(b))
}

// BuildGraph constructs the alignment graph for a seed group (or, for
// joint rolling, several alternating groups) in a fresh arena. It
// returns nil with an error when the group cannot be aligned.
func BuildGraph(b *ir.Block, opts *Options, groups ...*SeedGroup) (*Graph, error) {
	return buildGraph(new(attemptArena), b, opts, analysis.NewInterner(), groups...)
}

// positions maps b's instructions to their positions in b.
func positions(b *ir.Block) map[*ir.Instr]int {
	idx := make(map[*ir.Instr]int, len(b.Instrs))
	for i, in := range b.Instrs {
		idx[in] = i
	}
	return idx
}

// WatchArena passes every roll attempt, until the returned stop
// function is called, to see with the function's name and the
// differences between the attempt as built in the function's reused
// arena and the same attempt rebuilt in a fresh arena with a fresh
// interner ("" when they agree).
func WatchArena(see func(fn, diff string)) (stop func()) {
	testHookAttempt = func(b *ir.Block, opts *Options, groups []*SeedGroup, g *Graph, sched *Schedule, err error) {
		fresh := new(attemptArena)
		fg, ferr := buildGraph(fresh, b, opts, analysis.NewInterner(), groups...)
		if g == nil || fg == nil {
			see(b.Parent.Name, diffErr("alignment", err, ferr))
			return
		}
		fs, ferr := analyzeScheduling(fresh, b, fg, positions(b))
		diff := diffGraph(g, fg)
		if err != nil || ferr != nil {
			diff += diffErr("scheduling", err, ferr)
		} else {
			diff += diffSchedule(g, sched, fg, fs)
		}
		see(b.Parent.Name, diff)
	}
	return func() { testHookAttempt = nil }
}

func diffErr(phase string, reused, fresh error) string {
	if fmt.Sprint(reused) == fmt.Sprint(fresh) {
		return ""
	}
	return fmt.Sprintf("%s: reused arena %v, fresh %v\n", phase, reused, fresh)
}

func diffGraph(g, fg *Graph) string {
	var d string
	if s, fs := g.String(), fg.String(); s != fs {
		d += fmt.Sprintf("graph:\n%s-- fresh:\n%s", s, fs)
	}
	if !maps.Equal(g.Matched, fg.Matched) {
		d += fmt.Sprintf("matched: reused arena %v, fresh %v\n", g.Matched, fg.Matched)
	}
	kinds := func(g *Graph) (ks []NodeKind) {
		for _, n := range g.Nodes {
			ks = append(ks, n.Kind)
		}
		return ks
	}
	if k, fk := kinds(g), kinds(fg); !slices.Equal(k, fk) {
		d += fmt.Sprintf("nodes: reused arena %v, fresh %v\n", k, fk)
	}
	return d
}

// diffSchedule compares the placements and the emission orders, each
// node named by its position in its graph's Nodes.
func diffSchedule(g *Graph, s *Schedule, fg *Graph, fs *Schedule) string {
	var d string
	if !slices.Equal(s.Pre, fs.Pre) || !slices.Equal(s.Post, fs.Post) {
		d += fmt.Sprintf("pre/post: reused arena %v / %v, fresh %v / %v\n", s.Pre, s.Post, fs.Pre, fs.Post)
	}
	order := func(g *Graph, s *Schedule) []int {
		at := make(map[*Node]int, len(g.Nodes))
		for i, n := range g.Nodes {
			at[n] = i
		}
		var o []int
		for _, n := range s.Emission {
			if i, ok := at[n]; ok {
				o = append(o, i)
			} else {
				o = append(o, -1)
			}
		}
		return o
	}
	if o, fo := order(g, s), order(fg, fs); !slices.Equal(o, fo) {
		d += fmt.Sprintf("emission: reused arena %v, fresh %v\n", o, fo)
	}
	return d
}

// PricedAttempt is one roll attempt that passed scheduling, priced
// both ways on the unchanged body.
type PricedAttempt struct {
	Func string
	// Bound is rollBound's lower bound on the cost delta; Delta is the
	// exact delta of generating the loop, as tryRoll prices it.
	Bound, Delta int
}

// WatchPricing passes every roll attempt that passes scheduling to see
// until the returned stop function is called. Each attempt is
// generated under a checkpoint that is restored before the attempt
// goes on, so the run itself is unchanged.
func WatchPricing(see func(PricedAttempt)) (stop func()) {
	testHookPriced = func(f *ir.Func, b *ir.Block, g *Graph, sched *Schedule, opts *Options, bound int) {
		m := f.Parent
		gmark := m.MarkGlobals()
		rodataBefore := rodataSize(m)
		costBefore := opts.Model.Func(f)
		var ck ir.Checkpoint
		ck.Take(f)
		GenerateLoop(f, b, g, sched, opts)
		delta := opts.Model.Func(f) + rodataSize(m) - rodataBefore - costBefore
		ck.Restore()
		m.ResetGlobals(gmark)
		see(PricedAttempt{Func: f.Name, Bound: bound, Delta: delta})
	}
	return func() { testHookPriced = nil }
}

// NameCounter reads f's name counter from the name f.UniqueName gives
// a base that is taken and has no numbered variant, then undoes the
// probe.
func NameCounter(f *ir.Func) int {
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
