package rolag

import (
	"slices"
	"sort"
	"strings"

	"rolag/internal/analysis"
	"rolag/internal/ir"
)

// SeedKind classifies a seed group.
type SeedKind int

// Seed group kinds.
const (
	SeedStores SeedKind = iota
	SeedCalls
	SeedReduction
)

// String returns the kind's remark label.
func (k SeedKind) String() string {
	switch k {
	case SeedStores:
		return "stores"
	case SeedCalls:
		return "calls"
	case SeedReduction:
		return "reduction"
	}
	return "unknown"
}

// SeedGroup is a set of instructions likely to lead to isomorphic code
// (§IV.A): stores grouped by value type and base address, calls grouped
// by callee, and reduction-tree roots.
type SeedGroup struct {
	Kind   SeedKind
	Instrs []*ir.Instr // the seeds, in block order (lanes of the loop)

	// Reduction-only fields.
	RedRoot     *ir.Instr
	RedOp       ir.Op
	RedInternal []*ir.Instr
	RedLeaves   []ir.Value
	// Min/max reduction chains (extension): the comparison predicate
	// and operation of the per-link compare.
	MinMaxPred ir.Pred
	MinMaxCmp  ir.Op
	MinMaxInit ir.Value
}

// minLanes is the fewest seed instructions in a group (loop iterations)
// worth considering: a one-iteration loop cannot be smaller than its
// body.
const minLanes = 2

// Lanes returns the prospective loop trip count.
func (s *SeedGroup) Lanes() int {
	if s.Kind == SeedReduction {
		return len(s.RedLeaves)
	}
	return len(s.Instrs)
}

// collectSeedGroupsInfo scans a basic block and returns the seed
// groups ordered by descending lane count (bigger rolls first),
// breaking ties by first-seed position. The position index comes from
// fi's cached analyses.
func collectSeedGroupsInfo(b *ir.Block, opts *Options, fi *analysis.FuncInfo) []*SeedGroup {
	index := fi.Index()

	var groups []*SeedGroup

	// Stores grouped by (stored type, base object of the address).
	type storeKey struct {
		typ  string
		base ir.Value
	}
	storeGroups := make(map[storeKey][]*ir.Instr)
	var storeOrder []storeKey
	for _, in := range b.Instrs {
		if in.Op != ir.OpStore {
			continue
		}
		base := baseObject(in.Operand(1))
		if isRollArtifact(base) {
			// Stores materializing a previous roll's mismatch or
			// extraction arrays must not seed another roll: doing so
			// would regress forever (each roll creates new such
			// stores).
			continue
		}
		k := storeKey{typ: in.Operand(0).Type().String(), base: base}
		if _, ok := storeGroups[k]; !ok {
			storeOrder = append(storeOrder, k)
		}
		storeGroups[k] = append(storeGroups[k], in)
	}
	for _, k := range storeOrder {
		g := storeGroups[k]
		if len(g) >= minLanes {
			groups = append(groups, &SeedGroup{Kind: SeedStores, Instrs: g})
		}
	}

	// Calls grouped by callee.
	callGroups := make(map[*ir.Func][]*ir.Instr)
	var callOrder []*ir.Func
	for _, in := range b.Instrs {
		if in.Op != ir.OpCall {
			continue
		}
		if _, ok := callGroups[in.Callee]; !ok {
			callOrder = append(callOrder, in.Callee)
		}
		callGroups[in.Callee] = append(callGroups[in.Callee], in)
	}
	for _, c := range callOrder {
		g := callGroups[c]
		if len(g) >= minLanes {
			groups = append(groups, &SeedGroup{Kind: SeedCalls, Instrs: g})
		}
	}

	// Reduction-tree roots (§IV.C5).
	if opts.EnableReduction {
		for _, red := range collectReductions(b, opts) {
			groups = append(groups, red)
		}
	}
	// Select-based min/max reduction chains (extension; the paper's
	// future work).
	if opts.EnableMinMaxReduction {
		for _, red := range collectMinMaxReductions(b) {
			groups = append(groups, red)
		}
	}

	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].Lanes() != groups[j].Lanes() {
			return groups[i].Lanes() > groups[j].Lanes()
		}
		return seedPos(groups[i], index) < seedPos(groups[j], index)
	})
	return groups
}

func seedPos(g *SeedGroup, index map[*ir.Instr]int) int {
	if g.Kind == SeedReduction {
		return index[g.RedRoot]
	}
	return index[g.Instrs[0]]
}

// isRollArtifact reports whether v is an array created by RoLAG's own
// code generator (mismatch data, extraction buffers). The generator
// names them with a "roll." prefix, which no frontend identifier can
// carry (user names never contain a dot).
func isRollArtifact(v ir.Value) bool {
	switch v := v.(type) {
	case *ir.Instr:
		return v.Op == ir.OpAlloca && strings.HasPrefix(v.Name, "roll.")
	case *ir.Global:
		return strings.HasPrefix(v.Name, "roll.")
	}
	return false
}

// baseObject walks geps and bitcasts down to the root pointer, which
// identifies the "base address" used for grouping stores.
func baseObject(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Instr)
		if !ok {
			return v
		}
		switch in.Op {
		case ir.OpGEP, ir.OpBitcast:
			v = in.Operand(0)
		default:
			return v
		}
	}
}

// collectReductions finds reduction trees: maximal same-opcode trees of
// associative binary operations whose internal nodes are used only inside
// the tree. The leaves become the seed lanes.
func collectReductions(b *ir.Block, opts *Options) []*SeedGroup {
	// Users are counted function-wide, not per-block: an earlier roll in
	// the same RollFuncInto invocation may have split the block, moving a
	// user of an intermediate value (a terminator operand, a value live
	// across the split) into a successor block. A block-local count
	// would miss that use, claim the intermediate as tree-internal, and
	// delete a value that is still referenced.
	assoc := func(op ir.Op) bool {
		if op.IsAssociative() {
			return true
		}
		if opts.FastMath && (op == ir.OpFAdd || op == ir.OpFMul) {
			return true
		}
		return false
	}
	var out []*SeedGroup
	claimed := make(map[*ir.Instr]bool)
	// Each root's tree is walked into the same scratch lists; a tree
	// that becomes a seed group gets copies of its own.
	var root *ir.Instr
	var internal []*ir.Instr
	var leaves []ir.Value
	ok := true
	var walk func(v ir.Value)
	walk = func(v ir.Value) {
		if !ok {
			return
		}
		in, isInstr := v.(*ir.Instr)
		if isInstr && in.Parent == b && in.Op == root.Op && (in == root || singleUser(in)) {
			if claimed[in] {
				ok = false
				return
			}
			internal = append(internal, in)
			walk(in.Operand(0))
			walk(in.Operand(1))
			return
		}
		leaves = append(leaves, v)
	}
	// Scan in reverse so roots (late in the block) are found before
	// their internals.
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		root = b.Instrs[i]
		if claimed[root] || !root.Op.IsBinary() || !assoc(root.Op) {
			continue
		}
		// A root must not itself feed a same-opcode instruction in the
		// block (that one would be the root).
		isRoot := true
		for _, u := range root.Users() {
			if u.Op == root.Op && u.Parent == b {
				isRoot = false
				break
			}
		}
		if !isRoot {
			continue
		}
		internal, leaves, ok = internal[:0], leaves[:0], true
		walk(root)
		if !ok || len(internal) < 2 || len(leaves) < minLanes {
			continue
		}
		for _, in := range internal {
			claimed[in] = true
		}
		out = append(out, &SeedGroup{
			Kind:        SeedReduction,
			Instrs:      []*ir.Instr{root},
			RedRoot:     root,
			RedOp:       root.Op,
			RedInternal: slices.Clone(internal),
			RedLeaves:   slices.Clone(leaves),
		})
	}
	return out
}

func singleUser(v *ir.Instr) bool {
	n := 0
	for _, u := range v.Users() {
		for _, op := range u.Operands {
			if op == ir.Value(v) {
				n++
			}
		}
	}
	return n == 1
}

// tryJoinIdx attempts to combine seed groups that alternate in
// position into one joint group (§IV.C6). It returns the groups to roll
// together in body order, or nil when g cannot be joined. index maps
// b's instructions to their positions (typically a cached
// analysis.FuncInfo.Index).
func tryJoinIdx(b *ir.Block, g *SeedGroup, others []*SeedGroup, index map[*ir.Instr]int) []*SeedGroup {
	if g.Kind == SeedReduction {
		return nil
	}
	joined := []*SeedGroup{g}
	for _, o := range others {
		if o == g || o.Kind == SeedReduction || o.Lanes() != g.Lanes() {
			continue
		}
		if interleaved(joined, o, index) {
			joined = append(joined, o)
		}
	}
	if len(joined) == 1 {
		return nil
	}
	// Order the joined groups by the position of their first seed so the
	// loop body preserves the original alternating order.
	sort.SliceStable(joined, func(i, j int) bool {
		return index[joined[i].Instrs[0]] < index[joined[j].Instrs[0]]
	})
	return joined
}

// interleaved reports whether group o's seeds alternate with the combined
// seeds of groups gs: for every lane k, all groups' lane-k seeds must
// precede all groups' lane-k+1 seeds.
func interleaved(gs []*SeedGroup, o *SeedGroup, index map[*ir.Instr]int) bool {
	lanes := o.Lanes()
	for k := 0; k < lanes-1; k++ {
		maxThis := index[o.Instrs[k]]
		minNext := index[o.Instrs[k+1]]
		for _, g := range gs {
			if index[g.Instrs[k]] > maxThis {
				maxThis = index[g.Instrs[k]]
			}
			if index[g.Instrs[k+1]] < minNext {
				minNext = index[g.Instrs[k+1]]
			}
		}
		if maxThis > minNext {
			return false
		}
	}
	return true
}

// buildGraph constructs, in arena, the alignment graph for a seed
// group (or, for joint rolling, several alternating groups); it is
// valid until the arena builds the next one. It returns nil with an
// error when the group cannot be aligned. intern is the function's
// value interner (analysis.FuncInfo.Interner), which persists across
// graph builds, so memoization keys are reused integer ids instead of
// freshly formatted strings.
func buildGraph(arena *attemptArena, b *ir.Block, opts *Options, intern *analysis.Interner, groups ...*SeedGroup) (*Graph, error) {
	gb := &arena.gb
	gb.reset(opts, b, intern)
	roots := gb.kidStore.take(len(groups))
	for i, g := range groups {
		var err error
		switch g.Kind {
		case SeedReduction:
			roots[i], err = gb.buildReduction(g)
		default:
			roots[i], err = gb.makeMatch(g.Instrs)
			if roots[i] == nil && err == nil {
				err = &errAbort{code: "seeds-not-isomorphic", reason: "seed instructions are not isomorphic"}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	root := roots[0]
	if len(roots) > 1 {
		root = gb.addNode(gb.newNode(Node{Kind: KindJoint, Groups: roots}))
	}
	// Reduction internals are consumed by the roll but have no lane.
	// An instruction a match node claimed keeps its lane, so a lane
	// ≥ 0 below still means "claimed".
	matched := gb.matched
	for _, n := range gb.nodes {
		if n.Kind == KindReduction {
			for _, in := range n.RedInternal {
				if _, claimed := matched[in]; !claimed {
					matched[in] = -1
				}
			}
		}
	}
	// A value referenced as a loop input (identical/mismatch/recurrence
	// init lanes) must survive the roll; if it was also claimed by a
	// match node it would be deleted. Abort in that case.
	for _, n := range gb.nodes {
		var inputs []ir.Value
		switch n.Kind {
		case KindIdentical, KindMismatch:
			inputs = n.Vals
		case KindRecurrence:
			inputs = n.Vals[:1] // n.Init
		}
		for _, v := range inputs {
			if d, ok := v.(*ir.Instr); ok {
				if lane, isMatched := matched[d]; isMatched && lane >= 0 {
					return nil, &errAbort{code: "input-matched", reason: "loop input is also a matched instruction"}
				} else if isMatched {
					return nil, &errAbort{code: "input-in-reduction", reason: "loop input is inside a reduction tree"}
				}
			}
		}
	}
	arena.graph = Graph{Root: root, Block: b, Nodes: gb.nodes, Matched: matched}
	return &arena.graph, nil
}

// buildReduction creates the reduction node and grows the graph from the
// leaf group (§IV.C5). When the leftmost leaf is an odd one out — a phi
// (the accumulator of a partially unrolled reduction loop) or the only
// non-uniform leaf — it becomes the accumulator's initial value instead
// of a lane, mirroring how reductions enter loops in SSA form.
func (gb *graphBuilder) buildReduction(g *SeedGroup) (*Node, error) {
	n := gb.addNode(gb.newNode(Node{
		Kind:        KindReduction,
		RedOp:       g.RedOp,
		RedRoot:     g.RedRoot,
		RedInternal: g.RedInternal,
		MinMaxPred:  g.MinMaxPred,
		MinMaxCmp:   g.MinMaxCmp,
	}))
	leaves := g.RedLeaves
	if g.MinMaxPred != ir.PredInvalid {
		n.Init = g.MinMaxInit
	} else if len(leaves) >= 3 && oddFirstLeaf(leaves, gb.block) {
		n.Init = leaves[0]
		leaves = leaves[1:]
	}
	child, err := gb.build(leaves, nil)
	if err != nil {
		return nil, err
	}
	n.Children = gb.kidStore.take(1)
	n.Children[0] = child
	return n, nil
}

// oddFirstLeaf reports whether leaves[0] should seed the accumulator: it
// is a phi, or every other leaf is an instruction in the block with one
// common opcode while leaves[0] is not.
func oddFirstLeaf(leaves []ir.Value, b *ir.Block) bool {
	if in, ok := leaves[0].(*ir.Instr); ok && in.Op == ir.OpPhi {
		return true
	}
	var common ir.Op
	for _, v := range leaves[1:] {
		in, ok := v.(*ir.Instr)
		if !ok || in.Parent != b {
			return false
		}
		if common == ir.OpInvalid {
			common = in.Op
		} else if in.Op != common {
			return false
		}
	}
	if in, ok := leaves[0].(*ir.Instr); ok && in.Parent == b && in.Op == common {
		return false
	}
	return common != ir.OpInvalid
}

// collectMinMaxReductions finds select-based min/max chains:
//
//	v_k = select(cmp pred (cand_k, v_{k-1}), cand_k, v_{k-1})
//
// rooted at the last select. The candidates become the lanes and the
// chain's entry value seeds the accumulator. This implements the
// min/max reductions the paper lists as future work (§V.C).
func collectMinMaxReductions(b *ir.Block) []*SeedGroup {
	// Users are function-wide for the same reason as collectReductions:
	// chain values may have users in blocks created by earlier rolls.
	var out []*SeedGroup
	claimed := make(map[*ir.Instr]bool)
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		root := b.Instrs[i]
		if claimed[root] || root.Op != ir.OpSelect {
			continue
		}
		// Not itself part of a longer chain.
		partOfChain := false
		for _, u := range root.Users() {
			if u.Op == ir.OpSelect && u.Parent == b && u.Operand(2) == ir.Value(root) {
				partOfChain = true
			}
		}
		if partOfChain {
			continue
		}
		var internal []*ir.Instr
		var leaves []ir.Value
		var init ir.Value
		var pred ir.Pred
		var cmpOp ir.Op
		cur := root
		ok := true
		for {
			cmp, isCmp := cur.Operand(0).(*ir.Instr)
			if !isCmp || (cmp.Op != ir.OpICmp && cmp.Op != ir.OpFCmp) || cmp.Parent != b {
				ok = false
				break
			}
			cand := cur.Operand(1)
			prev := cur.Operand(2)
			if cmp.Operand(0) != cand || cmp.Operand(1) != prev {
				ok = false
				break
			}
			if pred == ir.PredInvalid {
				pred, cmpOp = cmp.Pred, cmp.Op
			} else if cmp.Pred != pred || cmp.Op != cmpOp {
				ok = false
				break
			}
			if claimed[cur] || claimed[cmp] {
				ok = false
				break
			}
			// The comparison must feed only this select: an external
			// user (e.g. an argmax index select, as in TSVC's s315)
			// would be left referencing a deleted instruction.
			if us := cmp.Users(); len(us) != 1 || us[0] != cur {
				ok = false
				break
			}
			internal = append(internal, cur, cmp)
			leaves = append(leaves, cand)
			p, isSel := prev.(*ir.Instr)
			if isSel && p.Op == ir.OpSelect && p.Parent == b && singleChainUse(p) {
				cur = p
				continue
			}
			init = prev
			break
		}
		if !ok || init == nil || len(leaves) < minLanes || len(internal) < 4 {
			continue
		}
		// leaves were collected last-to-first; reverse into lane order.
		for l, r := 0, len(leaves)-1; l < r; l, r = l+1, r-1 {
			leaves[l], leaves[r] = leaves[r], leaves[l]
		}
		for _, in := range internal {
			claimed[in] = true
		}
		out = append(out, &SeedGroup{
			Kind:        SeedReduction,
			Instrs:      []*ir.Instr{root},
			RedRoot:     root,
			RedOp:       ir.OpSelect,
			RedInternal: internal,
			RedLeaves:   leaves,
			MinMaxPred:  pred,
			MinMaxCmp:   cmpOp,
			MinMaxInit:  init,
		})
	}
	return out
}

// singleChainUse reports whether v is used only by the next chain link
// (one select and its comparison).
func singleChainUse(v *ir.Instr) bool {
	sel, cmp := 0, 0
	for _, u := range v.Users() {
		switch u.Op {
		case ir.OpSelect:
			sel++
		case ir.OpICmp, ir.OpFCmp:
			cmp++
		default:
			return false
		}
	}
	return sel == 1 && cmp == 1
}
