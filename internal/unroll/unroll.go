// Package unroll implements a partial unroller for canonical
// single-block loops. The paper's TSVC experiment (§V.C) force-unrolls
// every inner loop by a factor of 8 before applying the rerolling
// techniques; this package produces those inputs.
package unroll

import (
	"fmt"

	"rolag/internal/analysis"
	"rolag/internal/ir"
)

// Unroll unrolls the loop by the given factor, replicating the body
// factor-1 extra times inside the single loop block. It requires a
// compile-time trip count divisible by the factor (no epilogue loop is
// generated). Returns an error describing why the loop was left alone
// otherwise.
func Unroll(f *ir.Func, l *analysis.Loop, factor int) error {
	if factor < 2 {
		return fmt.Errorf("unroll: factor must be >= 2")
	}
	trip, known := l.TripCount()
	if !known {
		return fmt.Errorf("unroll: trip count unknown")
	}
	if trip <= 0 || trip%int64(factor) != 0 {
		return fmt.Errorf("unroll: trip count %d not divisible by factor %d", trip, factor)
	}
	b := l.Header
	phis := b.Phis()

	// The section to replicate: everything after the phis and before the
	// latch comparison. The latch is (cmp, condbr); the IV increment is
	// part of the replicated body.
	var body []*ir.Instr
	for _, in := range b.Instrs[len(phis):] {
		if in == l.Cmp || in == l.CondBr {
			continue
		}
		body = append(body, in)
	}
	if l.Cmp.Index() > l.CondBr.Index() {
		return fmt.Errorf("unroll: unexpected latch layout")
	}

	// vmap maps each original loop value to its value at the end of the
	// most recently emitted iteration.
	vmap := make(map[ir.Value]ir.Value)
	for _, in := range b.Instrs {
		vmap[in] = in
	}

	insertAt := l.Cmp.Index()
	for k := 1; k < factor; k++ {
		// Entering iteration k: each phi's current value is the
		// previous iteration's version of its backedge value.
		iterIn := make(map[ir.Value]ir.Value, len(phis))
		for _, phi := range phis {
			back, ok := phi.PhiIncoming(b)
			if !ok {
				return fmt.Errorf("unroll: phi %%%s lacks a backedge value", phi.Name)
			}
			iterIn[phi] = mapped(vmap, back)
		}
		newmap := make(map[ir.Value]ir.Value, len(body))
		for _, in := range body {
			clone := &ir.Instr{
				Op:     in.Op,
				Typ:    in.Typ,
				Pred:   in.Pred,
				Callee: in.Callee,
				Alloc:  in.Alloc,
			}
			if !ir.IsVoid(in.Typ) {
				clone.Name = f.UniqueName(in.Name)
			}
			clone.Operands = make([]ir.Value, len(in.Operands))
			for oi, op := range in.Operands {
				v := op
				if nv, ok := newmap[op]; ok {
					v = nv
				} else if nv, ok := iterIn[op]; ok {
					v = nv
				}
				clone.Operands[oi] = v
			}
			b.InsertAt(insertAt, clone)
			insertAt++
			newmap[in] = clone
		}
		// Roll the maps forward.
		for orig, iv := range iterIn {
			vmap[orig] = iv
		}
		for orig, clone := range newmap {
			vmap[orig] = clone
		}
	}

	// Rewire the latch: the comparison now tests the last iteration's IV
	// increment, and phi backedges take the last iteration's values.
	for oi, op := range l.Cmp.Operands {
		l.Cmp.SetOperand(oi, mapped(vmap, op))
	}
	for _, phi := range phis {
		for i, pb := range phi.Blocks {
			if pb == b {
				phi.SetOperand(i, mapped(vmap, phi.Operands[i]))
			}
		}
	}
	// Uses outside the loop (exit phis and anything dominated by the
	// exit) observe the value after the *last* replicated iteration.
	for _, ob := range f.Blocks {
		if ob == b {
			continue
		}
		for _, in := range ob.Instrs {
			for oi, op := range in.Operands {
				if d, ok := op.(*ir.Instr); ok && d.Parent == b && d.Op != ir.OpPhi {
					in.SetOperand(oi, mapped(vmap, op))
				}
			}
		}
	}
	return nil
}

func mapped(vmap map[ir.Value]ir.Value, v ir.Value) ir.Value {
	if nv, ok := vmap[v]; ok && nv != v {
		// Chase one level is enough: vmap is rolled forward each
		// iteration.
		return nv
	}
	return v
}

// UnrollAll unrolls every canonical loop in f by factor, returning the
// number of loops unrolled.
func UnrollAll(f *ir.Func, factor int) int {
	n := 0
	for _, l := range analysis.FindLoops(f) {
		if err := Unroll(f, l, factor); err == nil {
			n++
		}
	}
	return n
}
