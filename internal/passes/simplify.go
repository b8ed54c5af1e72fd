package passes

import (
	"slices"

	"rolag/internal/ir"
)

// Simplify performs local instruction and CFG cleanups:
//
//   - algebraic identities (x+0, x*1, x*0, x-0, x&x, x|x, gep p,0 → p);
//   - condbr on a constant becomes br;
//   - single-incoming phis are replaced by their value;
//   - straight-line block pairs are merged;
//   - unreachable blocks are deleted.
//
// Returns true if anything changed.
func Simplify(f *ir.Func) bool {
	if f.IsDecl() {
		return false
	}
	changed := false
	for {
		progress := false
		if simplifyInstrs(f) {
			progress = true
		}
		if foldBranches(f) {
			progress = true
		}
		if removeUnreachable(f) {
			progress = true
		}
		if mergeBlocks(f) {
			progress = true
		}
		if !progress {
			break
		}
		changed = true
	}
	return changed
}

func simplifyInstrs(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if reassociate(in) {
				changed = true
			}
			v := simplifyValue(in)
			if v == nil {
				continue
			}
			f.ReplaceAllUses(in, v)
			b.Remove(in)
			changed = true
		}
	}
	return changed
}

// reassociate canonicalizes constant chains in place:
//
//	sub x, c            -> add x, -c
//	add (add x, c1), c2 -> add x, c1+c2
//	gep (gep p, c1), c2 -> gep p, c1+c2   (single-index geps)
//
// which turns the chained induction-variable and pointer increments
// produced by unrolling into the base+k form the rerolling analyses
// expect.
func reassociate(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpSub:
		c, ok := in.Operand(1).(*ir.IntConst)
		if !ok {
			return false
		}
		in.Op = ir.OpAdd
		in.SetOperand(1, ir.ConstInt(c.Typ, -c.Val))
		return true
	case ir.OpAdd:
		c2, ok := in.Operand(1).(*ir.IntConst)
		if !ok {
			return false
		}
		inner, ok := in.Operand(0).(*ir.Instr)
		if !ok || inner.Op != ir.OpAdd {
			return false
		}
		c1, ok := inner.Operand(1).(*ir.IntConst)
		if !ok {
			return false
		}
		in.SetOperand(0, inner.Operand(0))
		in.SetOperand(1, ir.ConstInt(c1.Typ, c1.Val+c2.Val))
		return true
	case ir.OpGEP:
		if in.NumOperands() != 2 {
			return false
		}
		c2, ok := in.Operand(1).(*ir.IntConst)
		if !ok {
			return false
		}
		inner, ok := in.Operand(0).(*ir.Instr)
		if !ok || inner.Op != ir.OpGEP || inner.NumOperands() != 2 {
			return false
		}
		c1, ok := inner.Operand(1).(*ir.IntConst)
		if !ok || !inner.Typ.Equal(in.Operand(0).Type()) {
			return false
		}
		// Both geps step over the same element type (inner's result is
		// in's base), so indices add directly.
		in.SetOperand(0, inner.Operand(0))
		in.SetOperand(1, ir.ConstInt(c2.Typ, c1.Val+c2.Val))
		return true
	}
	return false
}

// simplifyValue returns a value equivalent to in if in is redundant, or
// nil.
func simplifyValue(in *ir.Instr) ir.Value {
	isZero := func(v ir.Value) bool {
		c, ok := ir.IntValue(v)
		return ok && c == 0
	}
	isOne := func(v ir.Value) bool {
		c, ok := ir.IntValue(v)
		return ok && c == 1
	}
	switch in.Op {
	case ir.OpAdd, ir.OpOr, ir.OpXor:
		if isZero(in.Operand(1)) {
			return in.Operand(0)
		}
		if isZero(in.Operand(0)) {
			return in.Operand(1)
		}
	case ir.OpSub, ir.OpShl, ir.OpLShr, ir.OpAShr:
		if isZero(in.Operand(1)) {
			return in.Operand(0)
		}
	case ir.OpMul:
		if isOne(in.Operand(1)) {
			return in.Operand(0)
		}
		if isOne(in.Operand(0)) {
			return in.Operand(1)
		}
		if isZero(in.Operand(0)) {
			return in.Operand(0)
		}
		if isZero(in.Operand(1)) {
			return in.Operand(1)
		}
	case ir.OpSDiv, ir.OpUDiv:
		if isOne(in.Operand(1)) {
			return in.Operand(0)
		}
	case ir.OpGEP:
		// gep p, 0 (single zero index) is p.
		if in.NumOperands() == 2 && isZero(in.Operand(1)) {
			return in.Operand(0)
		}
	case ir.OpPhi:
		if in.NumOperands() == 1 {
			return in.Operand(0)
		}
		var uniq ir.Value
		for _, v := range in.Operands {
			if v == in {
				continue
			}
			if uniq == nil {
				uniq = v
			} else if uniq != v {
				return nil
			}
		}
		return uniq
	case ir.OpSelect:
		if in.Operand(1) == in.Operand(2) {
			return in.Operand(1)
		}
	case ir.OpBitcast:
		if in.Operand(0).Type().Equal(in.Typ) {
			return in.Operand(0)
		}
	}
	return nil
}

// foldBranches turns condbr on constant conditions into unconditional
// branches and fixes phi edges in the no-longer-taken successor.
func foldBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		c, ok := ir.IntValue(t.Operand(0))
		if !ok {
			continue
		}
		taken, dropped := t.Blocks[0], t.Blocks[1]
		if c == 0 {
			taken, dropped = dropped, taken
		}
		if dropped != taken {
			removePhiEdge(dropped, b)
		}
		nb := &ir.Instr{Op: ir.OpBr, Typ: ir.Void, Blocks: []*ir.Block{taken}}
		b.Remove(t)
		b.Append(nb)
		changed = true
	}
	return changed
}

// removePhiEdge deletes the incoming edge from pred in every phi of b.
func removePhiEdge(b *ir.Block, pred *ir.Block) {
	for _, phi := range b.Phis() {
		for i := 0; i < len(phi.Blocks); i++ {
			if phi.Blocks[i] == pred {
				phi.RemoveIncoming(i)
				i--
			}
		}
	}
}

func removeUnreachable(f *ir.Func) bool {
	reach := map[*ir.Block]bool{f.Entry(): true}
	work := []*ir.Block{f.Entry()}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs() {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	if len(reach) == len(f.Blocks) {
		return false
	}
	for _, b := range slices.Clone(f.Blocks) {
		if reach[b] {
			continue
		}
		// Remove phi edges from dead predecessors.
		for _, s := range b.Succs() {
			if reach[s] {
				removePhiEdge(s, b)
			}
		}
		f.RemoveBlock(b)
	}
	return true
}

// mergeBlocks merges b into its unique successor s when b ends in an
// unconditional branch, s has b as its only predecessor, and s starts
// with no phis (or only phis with a single incoming edge, which are
// folded first by simplifyInstrs).
func mergeBlocks(f *ir.Func) bool {
	changed := false
	for {
		merged := false
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			s := t.Blocks[0]
			if s == b || s == f.Entry() {
				continue
			}
			preds := f.Preds(s)
			if len(preds) != 1 || preds[0] != b {
				continue
			}
			if len(s.Phis()) > 0 {
				continue
			}
			// Splice s's instructions into b.
			b.Remove(t)
			for _, in := range s.Instrs {
				b.Append(in)
			}
			// Any phi in s's successors that referenced s now comes
			// from b.
			for _, b2 := range f.Blocks {
				for _, phi := range b2.Phis() {
					for i, pb := range phi.Blocks {
						if pb == s {
							phi.Blocks[i] = b
						}
					}
				}
			}
			f.RemoveBlock(s)
			merged = true
			break
		}
		if !merged {
			break
		}
		changed = true
	}
	return changed
}
