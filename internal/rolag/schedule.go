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

// analyzeSchedulingIdx verifies that the instructions of the alignment
// graph can be rearranged into loop iterations while preserving the
// program's semantics, and computes where every other instruction of
// the block must be placed. It returns an error when the rearrangement
// is illegal. idx maps b's instructions to their positions in b
// (typically a cached analysis.FuncInfo.Index, which maps every
// instruction to its position within its own block); it serves both
// roles the analysis needs positions for: locating conflicts relative
// to the candidate and verifying the reordered memory-operation pairs.
func analyzeSchedulingIdx(b *ir.Block, g *Graph, idx map[*ir.Instr]int) (*Schedule, error) {
	emission := emissionOrder(g)

	// Inputs: unmatched values inside the block that the rolled loop
	// reads (they are materialized before the loop).
	inputSet := make(map[*ir.Instr]bool)
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
	pre := make(map[*ir.Instr]bool)
	var mark func(in *ir.Instr) bool
	mark = func(in *ir.Instr) bool {
		if pre[in] {
			return true
		}
		if _, matched := g.Matched[in]; matched {
			return false
		}
		pre[in] = true
		if in.Op == ir.OpPhi {
			// A phi stays at the block head; its incoming values are not
			// execution dependences (the backedge value is defined later
			// by construction).
			return true
		}
		for _, op := range in.Operands {
			if d, ok := op.(*ir.Instr); ok && d.Parent == b && d.Op != ir.OpPhi {
				if !mark(d) {
					return false
				}
			}
		}
		return true
	}
	for in := range inputSet {
		if !mark(in) {
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
	dependsOnMatched := make(map[*ir.Instr]bool)
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
	var sched Schedule
	sched.Emission = emission
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
	var newOrder []*ir.Instr
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
	orig := make([]int, len(newOrder))
	for i, in := range newOrder {
		orig[i] = idx[in]
	}
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
	return &sched, nil
}

// emissionOrder returns the nodes in deterministic post-order (operands
// before users); recurrence back-references are not traversed. Shared
// nodes appear once, at their first (deepest-needed) position.
func emissionOrder(g *Graph) []*Node {
	var order []*Node
	seen := make(map[*Node]bool)
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, gr := range n.Groups {
			visit(gr)
		}
		for _, c := range n.Children {
			visit(c)
		}
		order = append(order, n)
	}
	visit(g.Root)
	return order
}
