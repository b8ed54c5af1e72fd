package analysis

import "rolag/internal/ir"

// MayAlias conservatively reports whether two pointer values may address
// overlapping memory. It understands three cheap disambiguation facts:
//
//   - distinct allocas never alias;
//   - distinct globals never alias;
//   - geps off the same base with different constant index vectors of the
//     same shape do not alias;
//   - an alloca never aliases a global.
//
// Everything else may alias.
func MayAlias(a, b ir.Value) bool {
	ba, offa, oka := baseAndOffset(a)
	bb, offb, okb := baseAndOffset(b)
	if roota, rootb := ultimateBase(a), ultimateBase(b); roota != nil && rootb != nil {
		if !sameClass(roota, rootb) {
			return false
		}
		if roota != rootb && identified(roota) && identified(rootb) {
			return false
		}
	}
	if oka && okb && ba == bb {
		return offa == offb
	}
	return true
}

// Conflict reports whether two instructions have a memory conflict that
// forbids reordering them: both access memory, at least one writes, and
// the accessed locations may alias. Calls conflict with everything that
// touches memory.
func Conflict(a, b *ir.Instr) bool {
	if !a.HasMemoryEffect() || !b.HasMemoryEffect() {
		return false
	}
	if !a.MayWriteMemory() && !b.MayWriteMemory() {
		return false
	}
	if a.Op == ir.OpCall || b.Op == ir.OpCall {
		return true
	}
	return MayAlias(addrOf(a), addrOf(b))
}

func addrOf(in *ir.Instr) ir.Value {
	switch in.Op {
	case ir.OpLoad:
		return in.Operand(0)
	case ir.OpStore:
		return in.Operand(1)
	}
	return nil
}

// baseAndOffset peels a gep with all-constant indices down to its base
// pointer and a constant byte offset.
func baseAndOffset(v ir.Value) (base ir.Value, offset int64, ok bool) {
	offset = 0
	for {
		g, isGep := v.(*ir.Instr)
		if !isGep || g.Op != ir.OpGEP {
			return v, offset, true
		}
		off, constant := gepConstOffset(g)
		if !constant {
			return nil, 0, false
		}
		offset += off
		v = g.Operand(0)
	}
}

// gepConstOffset computes the byte offset of a gep whose indices are all
// constants.
func gepConstOffset(g *ir.Instr) (int64, bool) {
	pt := g.Operand(0).Type().(ir.PointerType)
	cur := ir.Type(pt.Elem)
	var off int64
	for i, idx := range g.Operands[1:] {
		c, ok := ir.IntValue(idx)
		if !ok {
			return 0, false
		}
		if i == 0 {
			off += c * int64(cur.Size())
			continue
		}
		switch t := cur.(type) {
		case ir.ArrayType:
			off += c * int64(t.Elem.Size())
			cur = t.Elem
		case *ir.StructType:
			off += int64(t.FieldOffset(int(c)))
			cur = t.Fields[c]
		default:
			return 0, false
		}
	}
	return off, true
}

// ultimateBase walks through geps and bitcasts to the root pointer.
func ultimateBase(v ir.Value) ir.Value {
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

// IdentifiedRoot returns the identified object (alloca or global) that
// pointer v points into, or nil when its root is not identified. Two
// pointers with different identified roots never alias.
func IdentifiedRoot(v ir.Value) ir.Value {
	if r := ultimateBase(v); identified(r) {
		return r
	}
	return nil
}

// identified reports whether v is an identified memory object (alloca or
// global) whose address is distinct from every other identified object.
func identified(v ir.Value) bool {
	if _, ok := v.(*ir.Global); ok {
		return true
	}
	if in, ok := v.(*ir.Instr); ok && in.Op == ir.OpAlloca {
		return true
	}
	return false
}

// sameClass reports whether the two roots could be the same object class;
// an alloca can never alias a global.
func sameClass(a, b ir.Value) bool {
	_, ga := a.(*ir.Global)
	_, gb := b.(*ir.Global)
	ia, oka := a.(*ir.Instr)
	ib, okb := b.(*ir.Instr)
	aAlloca := oka && ia.Op == ir.OpAlloca
	bAlloca := okb && ib.Op == ir.OpAlloca
	if (ga && bAlloca) || (gb && aAlloca) {
		return false
	}
	return true
}
