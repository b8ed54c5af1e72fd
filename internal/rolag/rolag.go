package rolag

import (
	"fmt"
	"strconv"

	"rolag/internal/analysis"
	"rolag/internal/ir"
	"rolag/internal/obs"
)

// RollModule runs RoLAG on every function of the module and returns the
// accumulated statistics. Analyses are cached across blocks and roll
// attempts through one analysis.Manager.
func RollModule(m *ir.Module, opts *Options) *Stats {
	if opts == nil {
		opts = DefaultOptions()
	}
	am := analysis.NewManager()
	stats := NewStats()
	for _, f := range m.Funcs {
		stats.Add(RollFuncInto(f, opts, am, m, nil))
	}
	return stats
}

// RollFuncInto runs RoLAG on every basic block of f (the main
// procedure of Fig. 5). Newly generated loop blocks are not
// re-processed. am carries cached per-function analyses (nil for a
// private cache). sink must be nil or f.Parent:
// codegen's constant-table globals always go to f.Parent. rec collects
// optimization remarks and carries the request trace; nil disables both
// with zero added allocations on the hot path.
func RollFuncInto(f *ir.Func, opts *Options, am *analysis.Manager, sink *ir.Module, rec *obs.Recorder) *Stats {
	if opts == nil {
		opts = DefaultOptions()
	}
	if am == nil {
		am = analysis.NewManager()
	}
	stats := NewStats()
	if f.IsDecl() {
		return stats
	}
	// Process blocks by index; rolling block i splits it into
	// (preheader i, loop i+1, exit i+2). The preheader and exit keep
	// leftover straight-line code and are revisited; the loop block is
	// skipped.
	skip := make(map[*ir.Block]bool)
	revisits := make(map[string]int)
	var arena *attemptArena // made by the first attempt, reused by the rest
	for i := 0; i < len(f.Blocks); i++ {
		b := f.Blocks[i]
		if skip[b] {
			continue
		}
		// Backstop against pathological re-roll chains: a block (by
		// name, which survives snapshots) is revisited a bounded number
		// of times.
		if revisits[b.Name] > 32 {
			continue
		}
		revisits[b.Name]++
		stats.BlocksScanned++
		rolled, loopBlock := rollBlockOnce(f, i, opts, stats, am, rec, &arena)
		if rolled {
			skip[loopBlock] = true
			// Revisit the (now shorter) preheader for further seed
			// groups (alternating patterns that were not joinable,
			// second store groups, ...).
			i--
		}
	}
	return stats
}

// rollBlockOnce tries the seed groups of block f.Blocks[bi] in priority
// order until one rolls profitably. It reports whether a roll happened
// and the created loop block. A rejected attempt restores the body in
// place and keeps the cached analyses valid, so the groups, their joint
// partners and their signatures are collected once per visit. Every
// attempt aligns and schedules in *arena, which the first one makes.
func rollBlockOnce(f *ir.Func, bi int, opts *Options, stats *Stats, am *analysis.Manager, rec *obs.Recorder, arena **attemptArena) (bool, *ir.Block) {
	b := f.Blocks[bi]
	fi := am.Info(f)
	t := phaseStart()
	idx := fi.Index()
	groups := collectSeedGroupsInfo(b, opts, fi)
	// The attempts in the order they are tried: each group's joint
	// attempt, if any, then the group alone.
	type attempt struct {
		groups []*SeedGroup
		sig    string
		alone  bool
	}
	order := make([]attempt, 0, len(groups))
	var sigBuf []byte
	sig := func(gs ...*SeedGroup) string {
		sigBuf = appendSignature(sigBuf[:0], b, idx, gs...)
		return string(sigBuf)
	}
	for _, g := range groups {
		if opts.EnableJoint {
			if joined := tryJoinIdx(b, g, groups, idx); joined != nil {
				order = append(order, attempt{joined, sig(joined...), false})
			}
		}
		order = append(order, attempt{[]*SeedGroup{g}, sig(g), true})
	}

	// Failed attempts only accumulate, so the next one to try never
	// moves back. live counts the groups not yet tried alone; there is
	// one seed span per attempt, the first including the collection.
	failed := make(map[string]bool)
	live := len(groups)
	for next := 0; ; next++ {
		stats.SeedGroups += live
		for next < len(order) && failed[order[next].sig] {
			next++
		}
		phaseEnd(rec, PhaseSeed, t)
		if next == len(order) {
			return false, nil
		}
		a := order[next]
		if rec.On() {
			rec.Add(obs.Remark{
				Pass: "rolag", Name: "seed", Status: obs.StatusAnalysis,
				Func: f.Name, Block: b.Name,
				Instr: instrRef(a.groups[0].Instrs[0], idx),
				Kind:  seedKindLabel(a.groups),
				Lanes: a.groups[0].Lanes(),
			})
		}
		if *arena == nil {
			*arena = new(attemptArena)
		}
		loopBlock, err := tryRoll(f, bi, opts, stats, am, rec, *arena, a.groups)
		if err == nil {
			return true, loopBlock
		}
		failed[a.sig] = true
		if a.alone {
			live--
		}
		t = phaseStart()
	}
}

// tryRoll builds the alignment graph, runs the scheduling analysis,
// generates the loop, and keeps it only if the cost model deems it
// smaller (Fig. 5). The graph and the schedule live in arena and die
// with the attempt. On any failure the function body, its name counter
// and the module's globals are as they were, so am's cached analyses
// of f stay valid and later names do not depend on the attempt.
func tryRoll(f *ir.Func, bi int, opts *Options, stats *Stats, am *analysis.Manager, rec *obs.Recorder, arena *attemptArena, groups []*SeedGroup) (*ir.Block, error) {
	b := f.Blocks[bi]
	fi := am.Info(f)
	lanes := groups[0].Lanes()

	t := phaseStart()
	graph, err := buildGraph(arena, b, opts, fi.Interner(), groups...)
	phaseEnd(rec, PhaseAlign, t)
	if err != nil {
		if testHookAttempt != nil {
			testHookAttempt(b, opts, groups, nil, nil, err)
		}
		if rec.On() {
			rec.Add(missRemark("align-reject", f, b, groups, fi, lanes, err))
		}
		return nil, err
	}
	stats.GraphsBuilt++
	if rec.On() {
		emitAlignRemarks(rec, f, b, graph, fi)
	}

	t = phaseStart()
	sched, err := analyzeScheduling(arena, b, graph, fi.Index())
	phaseEnd(rec, PhaseSchedule, t)
	if testHookAttempt != nil {
		testHookAttempt(b, opts, groups, graph, sched, err)
	}
	if err != nil {
		stats.ScheduleFailed++
		if rec.On() {
			rec.Add(missRemark("schedule-reject", f, b, groups, fi, lanes, err))
		}
		return nil, err
	}

	t = phaseStart()
	bound := rollBound(graph, sched)
	if testHookPriced != nil {
		testHookPriced(f, b, graph, sched, opts, bound)
	}
	if !opts.AlwaysRoll && bound >= 0 {
		// The graph alone shows the roll cannot shrink f: reject it
		// without a checkpoint or codegen.
		stats.NotProfitable++
		phaseEnd(rec, PhaseCodegen, t)
		if rec.On() {
			rm := missRemark("not-profitable", f, b, groups, fi, lanes, errBoundUnprofitable)
			rm.CostBefore = profit.Func(f)
			rm.CostAfter = rm.CostBefore + bound
			rm.DeltaBytes = bound
			rec.Add(rm)
		}
		return nil, errBoundUnprofitable
	}
	// Codegen is speculative: checkpoint the body so a rejected roll
	// puts the same blocks and instructions back, which keeps fi (and
	// every other pointer into the body) describing f again.
	var ck ir.Checkpoint
	ck.Take(f)
	m := f.Parent
	gmark := m.MarkGlobals()
	// Costs are function-local: the rodata term counts only the constant
	// tables THIS roll adds (the delta over the pre-roll module), not
	// whatever the module already holds, because a roll's cost is a
	// property of the roll alone, not of what earlier functions left
	// behind.
	rodataBefore := rodataSize(m)
	costBefore := profit.Func(f)

	GenerateLoop(f, b, graph, sched, opts)

	costAfter := profit.Func(f) + rodataSize(m) - rodataBefore
	if !opts.AlwaysRoll && costAfter >= costBefore {
		// Not profitable: restore the body and its names and drop
		// added globals.
		ck.Restore()
		m.ResetGlobals(gmark)
		stats.NotProfitable++
		phaseEnd(rec, PhaseCodegen, t)
		err := &errAbort{code: "not-profitable", reason: fmt.Sprintf("not profitable (%d >= %d bytes)", costAfter, costBefore)}
		if rec.On() {
			// fi predates the rewrite, so its index still locates the
			// original seed instructions the remark points at.
			rm := missRemark("not-profitable", f, b, groups, fi, lanes, err)
			rm.CostBefore = costBefore
			rm.CostAfter = costAfter
			rm.DeltaBytes = costAfter - costBefore
			rec.Add(rm)
		}
		return nil, err
	}
	// The roll is kept; everything cached about f is stale.
	am.Invalidate(f)
	stats.LoopsRolled++
	stats.InstrsRolled += len(graph.Matched)
	graph.AddNodeCounts(stats.NodeCounts)
	phaseEnd(rec, PhaseCodegen, t)
	loopBlock := f.Blocks[bi+1]
	if rec.On() {
		rec.Add(obs.Remark{
			Pass: "rolag", Name: "rolled", Status: obs.StatusPassed,
			Func: f.Name, Block: b.Name,
			Instr:      seedRef(groups, fi),
			Kind:       seedKindLabel(groups),
			Detail:     fmt.Sprintf("rolled %d matched instructions into loop %s", len(graph.Matched), loopBlock.Name),
			Lanes:      lanes,
			CostBefore: costBefore,
			CostAfter:  costAfter,
			DeltaBytes: costAfter - costBefore,
		})
	}
	return loopBlock, nil
}

// errBoundUnprofitable rejects a roll whose cost-delta lower bound
// (rollBound) is already ≥ 0; its remark's costs are that bound.
var errBoundUnprofitable = &errAbort{code: "not-profitable", reason: obs.BoundDetail}

// testHookAttempt, when set by the package's tests, sees every roll
// attempt once: after scheduling, with the graph and the schedule or
// the scheduling error, or, when alignment failed, with that error
// alone. It must leave f as it found it.
var testHookAttempt func(b *ir.Block, opts *Options, groups []*SeedGroup, g *Graph, sched *Schedule, err error)

// testHookPriced, when set by the package's tests, sees every roll
// attempt that passed scheduling, with its cost-delta lower bound,
// before the bound decides anything. It must leave f as it found it.
var testHookPriced func(f *ir.Func, b *ir.Block, g *Graph, sched *Schedule, opts *Options, bound int)

// seedKindLabel names the seed-group kind of an attempt; joint
// attempts are prefixed so the taxonomy distinguishes them.
func seedKindLabel(groups []*SeedGroup) string {
	label := groups[0].Kind.String()
	if len(groups) > 1 {
		return "joint-" + label
	}
	return label
}

// instrRef renders a stable instruction reference for remark
// provenance: the SSA name when the instruction produces a value,
// otherwise its opcode and position within the block.
func instrRef(in *ir.Instr, idx map[*ir.Instr]int) string {
	if in.Name != "" {
		return "%" + in.Name
	}
	return fmt.Sprintf("%s@%d", in.Op, idx[in])
}

// seedRef is instrRef on the first seed instruction of an attempt.
// After codegen rewrote the block the original seed pointers are gone
// from the index, so the position falls back to 0; the opcode and
// block name still locate the decision.
func seedRef(groups []*SeedGroup, fi *analysis.FuncInfo) string {
	return instrRef(groups[0].Instrs[0], fi.Index())
}

// missRemark builds the common shape of a rejection remark from an
// errAbort: the stable code lands in Reason, the human text in Detail,
// and the first seed instruction anchors the provenance.
func missRemark(name string, f *ir.Func, b *ir.Block, groups []*SeedGroup, fi *analysis.FuncInfo, lanes int, err error) obs.Remark {
	rm := obs.Remark{
		Pass: "rolag", Name: name, Status: obs.StatusMissed,
		Func: f.Name, Block: b.Name,
		Instr: seedRef(groups, fi),
		Kind:  seedKindLabel(groups),
		Lanes: lanes,
	}
	if ab, ok := err.(*errAbort); ok {
		rm.Reason = ab.code
		rm.Detail = ab.reason
	} else if err != nil {
		rm.Reason = name
		rm.Detail = err.Error()
	}
	return rm
}

// emitAlignRemarks records one analysis remark per alignment-graph
// node — the paper's per-node accept/mismatch record. Mismatch nodes
// carry the lane type as the mismatch kind.
func emitAlignRemarks(rec *obs.Recorder, f *ir.Func, b *ir.Block, graph *Graph, fi *analysis.FuncInfo) {
	idx := fi.Index()
	for _, n := range graph.Nodes {
		rm := obs.Remark{
			Pass: "rolag", Name: "align-node", Status: obs.StatusAnalysis,
			Func: f.Name, Block: b.Name,
			Kind:  n.Kind.String(),
			Lanes: len(n.Vals),
		}
		for _, in := range n.Insts {
			if in != nil {
				rm.Instr = instrRef(in, idx)
				break
			}
		}
		if n.Kind == KindMismatch && len(n.Vals) > 0 && n.Vals[0] != nil {
			rm.Detail = "mismatching lanes of type " + n.Vals[0].Type().String()
		}
		rec.Add(rm)
	}
}

// rodataSize sums the read-only global data the cost model attributes to
// the text segment.
func rodataSize(m *ir.Module) int {
	n := 0
	for _, g := range m.Globals {
		if g.ReadOnly {
			n += g.Elem.Size()
		}
	}
	return n
}

// appendSignature appends the identity of a (joint) seed-group attempt
// to dst: block name plus each seed's index within the block, stable
// across body snapshots. idx must map b's instructions to their
// position in b (a cached analysis.FuncInfo.Index works: it records each
// instruction's position within its own block).
func appendSignature(dst []byte, b *ir.Block, idx map[*ir.Instr]int, groups ...*SeedGroup) []byte {
	dst = append(dst, b.Name...)
	for _, g := range groups {
		dst = append(dst, "|k"...)
		dst = strconv.AppendInt(dst, int64(g.Kind), 10)
		dst = append(dst, ':')
		for _, in := range g.Instrs {
			dst = strconv.AppendInt(dst, int64(idx[in]), 10)
			dst = append(dst, ',')
		}
	}
	return dst
}
