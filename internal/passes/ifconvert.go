package passes

import "rolag/internal/ir"

// IfConvert converts triangle- and diamond-shaped conditionals whose
// arms are cheap, side-effect-free straight-line code into select
// instructions (the speculation simplifycfg performs in LLVM's -Os
// pipeline). Shapes handled:
//
//	A: condbr c, T, J        A: condbr c, T, F
//	T: ...pure...; br J      T: ...pure...; br J
//	J: phi [x, T], [y, A]    F: ...pure...; br J
//	                         J: phi [x, T], [y, F]
//
// The arm instructions are hoisted into A, the phis become selects, and
// the blocks merge. This is what turns `m = a > m ? a : m` and
// `if (a > m) m = a;` loop bodies into single blocks that the rolling
// techniques can work on (the paper's s3113/s314 discussion, §V.C).
func IfConvert(f *ir.Func) bool {
	if f.IsDecl() {
		return false
	}
	// Unify duplicate address computations first: an arm's reload is
	// only recognizably safe when its pointer is the same SSA value as
	// the dominating access. What CSE deletes is a change too.
	changed := CSE(f)
	for {
		if !ifConvertOne(f) {
			break
		}
		changed = true
		// Merging may expose further opportunities (and fresh CSE
		// candidates across the merged blocks).
		Simplify(f)
		CSE(f)
	}
	return changed
}

// speculationBudget bounds how many instructions may be executed
// unconditionally per arm.
const speculationBudget = 8

func ifConvertOne(f *ir.Func) bool {
	for _, a := range f.Blocks {
		term := a.Terminator()
		if term == nil || term.Op != ir.OpCondBr {
			continue
		}
		tb, fb := term.Blocks[0], term.Blocks[1]
		if tb == fb || tb == a || fb == a {
			continue
		}
		// Identify the join block for triangle or diamond shapes.
		var join *ir.Block
		var arms []*ir.Block
		switch {
		case armTargets(f, tb) == fb:
			join, arms = fb, []*ir.Block{tb}
		case armTargets(f, fb) == tb:
			join, arms = tb, []*ir.Block{fb}
		case armTargets(f, tb) != nil && armTargets(f, tb) == armTargets(f, fb):
			join, arms = armTargets(f, tb), []*ir.Block{tb, fb}
		default:
			continue
		}
		if join == a {
			continue
		}
		ok := true
		for _, arm := range arms {
			if !speculatable(a, arm) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// The join must have exactly the two expected predecessors.
		preds := f.Preds(join)
		if len(preds) != 2 {
			continue
		}
		expectA, expectB := a, arms[0]
		if len(arms) == 2 {
			expectA, expectB = arms[0], arms[1]
		}
		if !(preds[0] == expectA && preds[1] == expectB) && !(preds[0] == expectB && preds[1] == expectA) {
			continue
		}

		// Perform the conversion: hoist arm instructions into a,
		// rewrite join phis as selects in a, branch a -> join.
		cond := term.Operand(0)
		a.Remove(term)
		for _, arm := range arms {
			at := arm.Terminator()
			arm.Remove(at)
			for _, in := range arm.Instrs {
				a.Append(in)
			}
		}
		// Each phi in join becomes a select on cond.
		phis := join.Phis()
		for _, phi := range phis {
			var tv, fv ir.Value
			for i, pb := range phi.Blocks {
				v := phi.Operands[i]
				switch pb {
				case tb:
					tv = v
				case fb:
					fv = v
				case a:
					// Triangle: this value flows around the arm on the
					// fall-through edge.
					if join == fb {
						fv = v
					} else {
						tv = v
					}
				}
			}
			if tv == nil || fv == nil {
				continue
			}
			sel := &ir.Instr{
				Op:       ir.OpSelect,
				Typ:      phi.Typ,
				Name:     f.UniqueName(phi.Name),
				Operands: []ir.Value{cond, tv, fv},
			}
			a.Append(sel)
			f.ReplaceAllUses(phi, sel)
			join.Remove(phi)
		}
		br := &ir.Instr{Op: ir.OpBr, Typ: ir.Void, Blocks: []*ir.Block{join}}
		a.Append(br)
		for _, arm := range arms {
			f.RemoveBlock(arm)
		}
		return true
	}
	return false
}

// armTargets returns the unique successor of a candidate arm block if the
// block is a plain straight-line arm (single unconditional exit, no
// phis), else nil.
func armTargets(f *ir.Func, b *ir.Block) *ir.Block {
	t := b.Terminator()
	if t == nil || t.Op != ir.OpBr {
		return nil
	}
	if len(b.Phis()) > 0 {
		return nil
	}
	// The arm must have exactly one predecessor (the branch block).
	if len(f.Preds(b)) != 1 {
		return nil
	}
	return t.Blocks[0]
}

// speculatable reports whether every instruction of the arm may execute
// unconditionally: pure, cheap, and no traps. A load is speculatable
// when the branch block already accesses the identical address
// unconditionally (it is known dereferenceable, and loads are
// idempotent).
func speculatable(branch *ir.Block, b *ir.Block) bool {
	n := 0
	for _, in := range b.Instrs {
		if in.IsTerminator() {
			continue
		}
		switch {
		case in.Op.IsBinary():
			// Division can trap.
			if in.Op == ir.OpSDiv || in.Op == ir.OpUDiv || in.Op == ir.OpSRem || in.Op == ir.OpURem {
				return false
			}
		case in.Op.IsCast(), in.Op == ir.OpGEP, in.Op == ir.OpICmp,
			in.Op == ir.OpFCmp, in.Op == ir.OpSelect:
		case in.Op == ir.OpLoad:
			if !derefInBlock(branch, in.Operand(0)) {
				return false
			}
		default:
			return false
		}
		n++
		if n > speculationBudget {
			return false
		}
	}
	return true
}

// derefInBlock reports whether ptr is loaded from or stored to in b.
func derefInBlock(b *ir.Block, ptr ir.Value) bool {
	for _, in := range b.Instrs {
		if in.Op == ir.OpLoad && in.Operand(0) == ptr {
			return true
		}
		if in.Op == ir.OpStore && in.Operand(1) == ptr {
			return true
		}
	}
	return false
}
