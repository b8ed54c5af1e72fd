package rolag

import (
	"rolag/internal/analysis"
	"rolag/internal/ir"
)

// Schedule is the result of the scheduling analysis (§IV.D): a statically
// verified placement of every instruction in the block.
type Schedule struct {
	// Pre holds the instructions that stay before the rolled loop: the
	// mismatching nodes' lane values, recurrence initial values,
	// loop-invariant inputs, and everything they depend on, in original
	// block order.
	Pre []*ir.Instr
	// Post holds the unmatched instructions placed after the loop, in
	// original block order.
	Post []*ir.Instr
	// Emission is the deterministic code-generation order of the graph's
	// nodes (operands before users).
	Emission []*Node
}

// scheduler is the scheduling analysis' scratch state, kept in an
// attemptArena: the sets are cleared and the lists truncated for every
// attempt, and the Schedule it returns is valid until the next one.
type scheduler struct {
	inputSet, pre, dependsOnMatched map[*ir.Instr]bool
	// emitted is emissionOrder's visited set.
	emitted  map[*Node]bool
	newOrder []*ir.Instr
	orig     []int
	sched    Schedule
}

// reset readies sc for a new attempt: the sets are cleared (made on
// first use) and the lists truncated.
func (sc *scheduler) reset() {
	if sc.pre == nil {
		sc.inputSet = make(map[*ir.Instr]bool)
		sc.pre = make(map[*ir.Instr]bool)
		sc.dependsOnMatched = make(map[*ir.Instr]bool)
		sc.emitted = make(map[*Node]bool)
	}
	clear(sc.inputSet)
	clear(sc.pre)
	clear(sc.dependsOnMatched)
	clear(sc.emitted)
	sc.newOrder = sc.newOrder[:0]
	sc.sched = Schedule{Pre: sc.sched.Pre[:0], Post: sc.sched.Post[:0], Emission: sc.sched.Emission[:0]}
}

// analyzeScheduling verifies, in arena, that the instructions of the
// alignment graph can be rearranged into loop iterations while
// preserving the program's semantics, and computes where every other
// instruction of the block must be placed. It returns an error when
// the rearrangement is illegal. idx maps b's instructions to their
// positions in b (typically a cached analysis.FuncInfo.Index, which
// maps every instruction to its position within its own block); it
// serves both roles the analysis needs positions for: locating
// conflicts relative to the candidate and verifying the reordered
// memory-operation pairs.
func analyzeScheduling(arena *attemptArena, b *ir.Block, g *Graph, idx map[*ir.Instr]int) (*Schedule, error) {
	sc := &arena.sc
	sc.reset()
	sched := &sc.sched
	sched.Emission = sc.emissionOrder(sched.Emission, g.Root)
	emission := sched.Emission

	// Inputs: unmatched values inside the block that the rolled loop
	// reads (they are materialized before the loop).
	inputSet := sc.inputSet
	addInput := func(v ir.Value) {
		if d, ok := v.(*ir.Instr); ok && d.Parent == b {
			inputSet[d] = true
		}
	}
	for _, n := range emission {
		switch n.Kind {
		case KindIdentical, KindMismatch:
			for _, v := range n.Vals {
				addInput(v)
			}
		case KindRecurrence:
			addInput(n.Init)
		case KindReduction:
			if n.Init != nil {
				addInput(n.Init)
			}
		}
	}

	// PRE: inputs plus their transitive in-block dependences. A
	// dependence on a matched instruction is a circular dependence
	// across the loop boundary — prohibited (§IV.D).
	pre := sc.pre
	for in := range inputSet {
		if !sc.mark(b, g, in) {
			return nil, &errAbort{code: "circular-dependence", reason: "circular dependence: a loop input depends on a matched instruction"}
		}
	}

	// Classify every remaining instruction. Instructions that
	// (transitively) depend on a matched instruction must follow the
	// loop; the loop's inputs and their dependences must precede it;
	// everything else is independent (Fig. 13's I-2/I-3/I-5) and keeps
	// its side of the rolled region: independents that originally ran
	// before the first matched instruction stay in front, the rest sink
	// behind — minimizing memory-order disturbance.
	dependsOnMatched := sc.dependsOnMatched
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi {
			continue
		}
		if _, m := g.Matched[in]; m {
			continue
		}
		for _, op := range in.Operands {
			d, ok := op.(*ir.Instr)
			if !ok || d.Parent != b {
				continue
			}
			if _, m := g.Matched[d]; m || dependsOnMatched[d] {
				dependsOnMatched[in] = true
				break
			}
		}
	}
	firstMatched := len(b.Instrs)
	for i, in := range b.Instrs {
		if _, m := g.Matched[in]; m {
			firstMatched = i
			break
		}
	}
	// For an independent instruction with memory effects, the safe side
	// depends on which matched memory operations it conflicts with: a
	// conflict with a matched op *after* it forbids sinking (→ PRE), a
	// conflict with one *before* it forbids hoisting (→ POST). The final
	// pairwise order check below still vets every decision.
	conflictSides := func(in *ir.Instr) (before, after bool) {
		if !in.HasMemoryEffect() {
			return false, false
		}
		for m := range g.Matched {
			if !m.HasMemoryEffect() {
				continue
			}
			if analysis.Conflict(in, m) {
				if idx[m] < idx[in] {
					before = true
				} else {
					after = true
				}
			}
		}
		return before, after
	}
	for i, in := range b.Instrs {
		if in.Op == ir.OpPhi || in.IsTerminator() {
			continue
		}
		if _, m := g.Matched[in]; m {
			continue
		}
		if pre[in] {
			continue // already forced PRE
		}
		if dependsOnMatched[in] {
			continue // must be POST
		}
		cb, ca := conflictSides(in)
		switch {
		case cb && ca:
			return nil, &errAbort{code: "memory-both-sides", reason: "independent memory operation conflicts with matched code on both sides"}
		case ca:
			pre[in] = true
		case cb:
			// stays POST
		case i < firstMatched:
			pre[in] = true
		}
	}
	// Closure: dependences of PRE instructions must be PRE.
	for changed := true; changed; {
		changed = false
		for _, in := range b.Instrs {
			if !pre[in] || in.Op == ir.OpPhi {
				continue
			}
			for _, op := range in.Operands {
				if d, ok := op.(*ir.Instr); ok && d.Parent == b && d.Op != ir.OpPhi && !pre[d] {
					if _, m := g.Matched[d]; m {
						return nil, &errAbort{code: "circular-dependence", reason: "circular dependence: pre-loop code depends on a matched instruction"}
					}
					pre[d] = true
					changed = true
				}
			}
		}
	}
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi || in.IsTerminator() {
			continue
		}
		if _, matched := g.Matched[in]; matched {
			continue
		}
		if pre[in] {
			sched.Pre = append(sched.Pre, in)
		} else {
			sched.Post = append(sched.Post, in)
		}
	}

	// A POST instruction must not be depended on by a PRE instruction;
	// PRE is dependence-closed, so that cannot happen. But a PRE
	// instruction with memory effects that originally executed *after*
	// memory effects of matched or POST instructions would be hoisted;
	// likewise POST memory ops sink below later iterations' ops, and
	// matched memory ops are reordered iteration-major. Verify every
	// reordered pair of conflicting memory operations (§IV.D).
	newOrder := sc.newOrder
	for _, in := range sched.Pre {
		if in.HasMemoryEffect() {
			newOrder = append(newOrder, in)
		}
	}
	lanes := g.Root.Lanes()
	for k := 0; k < lanes; k++ {
		for _, n := range emission {
			if n.Kind != KindMatch {
				continue
			}
			in := n.Insts[k]
			if in != nil && in.HasMemoryEffect() {
				newOrder = append(newOrder, in)
			}
		}
	}
	for _, in := range sched.Post {
		if in.HasMemoryEffect() {
			newOrder = append(newOrder, in)
		}
	}
	// The check visits every pair, so read the original positions
	// from a slice, not the index map.
	sc.newOrder = newOrder
	orig := sc.orig[:0]
	for _, in := range newOrder {
		orig = append(orig, idx[in])
	}
	sc.orig = orig
	for i := 0; i < len(newOrder); i++ {
		for j := i + 1; j < len(newOrder); j++ {
			a, c := newOrder[i], newOrder[j]
			// a precedes c in the new order; if c originally preceded a
			// and they conflict, the roll is illegal.
			if orig[j] < orig[i] && analysis.Conflict(a, c) {
				return nil, &errAbort{code: "memory-reorder", reason: "memory operations would be reordered: " + a.String() + " / " + c.String()}
			}
		}
	}
	return sched, nil
}

// mark adds in and its transitive in-block dependences to the PRE set.
// It reports false when one of them is a matched instruction: a
// circular dependence across the loop boundary.
func (sc *scheduler) mark(b *ir.Block, g *Graph, in *ir.Instr) bool {
	if sc.pre[in] {
		return true
	}
	if _, matched := g.Matched[in]; matched {
		return false
	}
	sc.pre[in] = true
	if in.Op == ir.OpPhi {
		// A phi stays at the block head; its incoming values are not
		// execution dependences (the backedge value is defined later
		// by construction).
		return true
	}
	for _, op := range in.Operands {
		if d, ok := op.(*ir.Instr); ok && d.Parent == b && d.Op != ir.OpPhi {
			if !sc.mark(b, g, d) {
				return false
			}
		}
	}
	return true
}

// emissionOrder appends to order the nodes under n in deterministic
// post-order (operands before users); recurrence back-references are
// not traversed. Shared nodes appear once, at their first
// (deepest-needed) position.
func (sc *scheduler) emissionOrder(order []*Node, n *Node) []*Node {
	if sc.emitted[n] {
		return order
	}
	sc.emitted[n] = true
	for _, gr := range n.Groups {
		order = sc.emissionOrder(order, gr)
	}
	for _, c := range n.Children {
		order = sc.emissionOrder(order, c)
	}
	return append(order, n)
}
