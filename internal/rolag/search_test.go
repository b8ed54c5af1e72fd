package rolag

// The search shortcuts — recurrence candidates looked up by lane-0
// instruction, seed groups collected once per block visit — must choose
// exactly what the plain searches chose.

import (
	"testing"

	"rolag/internal/cc"
	"rolag/internal/ir"
	"rolag/internal/passes"
	"rolag/internal/unroll"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// searchInput is one module of the search corpus, canonicalized (and,
// for TSVC kernels, unrolled by 8) as the pipeline hands it to RoLAG.
func searchInput(t *testing.T, name, src string, unrollBy8 bool) *ir.Module {
	t.Helper()
	m, err := cc.Compile(src, name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	passes.Standard().Run(m)
	if unrollBy8 {
		for _, f := range m.Funcs {
			unroll.UnrollAll(f, 8)
		}
		passes.Standard().Run(m)
	}
	return m
}

// forSearchCorpus calls fn on every module of angha.Generate(300, 1) and
// of the TSVC kernels unrolled by 8.
func forSearchCorpus(t *testing.T, fn func(name string, m *ir.Module)) {
	for _, f := range angha.Generate(300, 1) {
		fn(f.Name, searchInput(t, f.Name, f.Src, false))
	}
	for _, k := range tsvc.Kernels() {
		fn(k.Name, searchInput(t, k.Name, k.Src, true))
	}
}

// linearRecurrence is the reference recurrence search: the parent, then
// every match node built so far, newest first.
func linearRecurrence(gb *graphBuilder, vals []ir.Value, parent *Node) *Node {
	var cands []*Node
	if parent != nil && parent.Kind == KindMatch {
		cands = append(cands, parent)
	}
	for i := len(gb.nodes) - 1; i >= 0; i-- {
		if n := gb.nodes[i]; n.Kind == KindMatch && n != parent {
			cands = append(cands, n)
		}
	}
	for _, ref := range cands {
		if recursOn(vals, ref) {
			return ref
		}
	}
	return nil
}

func TestRecurrenceIndexMatchesLinearScan(t *testing.T) {
	var module string
	calls, found := 0, 0
	recurrenceProbe = func(gb *graphBuilder, vals []ir.Value, parent, ref *Node) {
		calls++
		if ref != nil {
			found++
		}
		if want := linearRecurrence(gb, vals, parent); ref != want {
			t.Errorf("%s: indexed recurrence search chose %p, the linear scan %p", module, ref, want)
		}
	}
	defer func() { recurrenceProbe = nil }()
	forSearchCorpus(t, func(name string, m *ir.Module) {
		module = name
		RollModule(m, nil)
	})
	if calls == 0 || found == 0 {
		t.Fatalf("%d recurrence searches, %d found: the corpus no longer exercises the search", calls, found)
	}
	t.Logf("%d recurrence searches agree, %d found a recurrence", calls, found)
}

// TestStatsWithRejectedAttempts pins the statistics of modules whose
// blocks go through several rejected roll attempts, as the driver
// recorded them when it re-collected the seed groups after every
// rejection.
func TestStatsWithRejectedAttempts(t *testing.T) {
	type counts struct {
		BlocksScanned, SeedGroups, GraphsBuilt, NotProfitable, ScheduleFailed, LoopsRolled int
	}
	want := map[string]counts{
		"fn_plain_0099":       {3, 210, 20, 20, 0, 0},
		"fn_chainedcall_0110": {3, 190, 19, 18, 0, 1},
		"fn_storeseq_0094":    {3, 93, 14, 13, 0, 1},
		"s1251":               {3, 5, 3, 0, 3, 0},
		"s4121":               {5, 5, 2, 0, 1, 1},
	}
	seen := 0
	forSearchCorpus(t, func(name string, m *ir.Module) {
		w, ok := want[name]
		if !ok {
			return
		}
		seen++
		s := RollModule(m, nil)
		got := counts{s.BlocksScanned, s.SeedGroups, s.GraphsBuilt, s.NotProfitable, s.ScheduleFailed, s.LoopsRolled}
		if got != w {
			t.Errorf("%s: stats %+v, want %+v", name, got, w)
		}
	})
	if seen != len(want) {
		t.Fatalf("found %d of the %d pinned modules in the corpus", seen, len(want))
	}
}
