package ir

import (
	"fmt"
	"slices"
)

// VerifyError describes a structural or type error found by Verify.
type VerifyError struct {
	Func  string
	Block string
	Instr string
	Msg   string
}

func (e *VerifyError) Error() string {
	loc := e.Func
	if e.Block != "" {
		loc += ":" + e.Block
	}
	if e.Instr != "" {
		loc += ": " + e.Instr
	}
	return fmt.Sprintf("ir verify: %s: %s", loc, e.Msg)
}

// Verify checks the structural invariants of the module: every block is
// terminated, SSA definitions dominate uses (a phi's use at the end of
// its incoming edge), phis match their block's predecessors, operand
// types match opcode requirements, names are unique and every use-list
// lists exactly the instruction's users. It returns the first error
// found, or nil.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if err := f.Verify(); err != nil {
			return err
		}
	}
	return nil
}

// Verify checks the invariants of a single function.
func (f *Func) Verify() error {
	if f.IsDecl() {
		return nil
	}
	errf := func(b *Block, in *Instr, format string, args ...any) error {
		e := &VerifyError{Func: f.Name, Msg: fmt.Sprintf(format, args...)}
		if b != nil {
			e.Block = b.Name
		}
		if in != nil {
			e.Instr = in.String()
		}
		return e
	}

	// Name uniqueness and block well-formedness.
	nInstrs := f.NumInstrs()
	names := make(map[string]bool, len(f.Params)+nInstrs)
	for _, p := range f.Params {
		if names[p.Name] {
			return errf(nil, nil, "duplicate name %%%s", p.Name)
		}
		names[p.Name] = true
	}
	blockNames := make(map[string]bool, len(f.Blocks))
	// pos holds every instruction of the body with its position in its
	// block: the set of values defined here, and the order dominance
	// checks within a block.
	pos := make(map[*Instr]int, nInstrs)
	for _, b := range f.Blocks {
		if blockNames[b.Name] {
			return errf(b, nil, "duplicate block name")
		}
		blockNames[b.Name] = true
		if b.Terminator() == nil {
			return errf(b, nil, "block is not terminated")
		}
		for i, in := range b.Instrs {
			if in.Parent != b {
				return errf(b, in, "instruction parent mismatch")
			}
			if in.IsTerminator() && i != len(b.Instrs)-1 {
				return errf(b, in, "terminator in the middle of a block")
			}
			if in.Op == OpPhi && i > 0 && b.Instrs[i-1].Op != OpPhi {
				return errf(b, in, "phi not grouped at the start of the block")
			}
			if !IsVoid(in.Typ) {
				if in.Name == "" {
					return errf(b, in, "value-producing instruction has no name")
				}
				if names[in.Name] {
					return errf(b, in, "duplicate name %%%s", in.Name)
				}
				names[in.Name] = true
			}
			pos[in] = i
		}
	}

	// Operand validity and typing.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for oi, op := range in.Operands {
				if op == nil {
					return errf(b, in, "nil operand %d", oi)
				}
				switch v := op.(type) {
				case *Instr:
					if _, ok := pos[v]; !ok {
						return errf(b, in, "operand %%%s is not defined in this function", v.Name)
					}
				case *Param:
					if !slices.Contains(f.Params, v) {
						return errf(b, in, "operand %%%s is not a parameter of this function", v.Name)
					}
				case *Global:
					if v.Parent != f.Parent {
						return errf(b, in, "operand @%s belongs to another module", v.Name)
					}
				}
			}
			if err := checkTypes(in); err != nil {
				return errf(b, in, "%v", err)
			}
			if in.Op == OpPhi {
				preds := f.Preds(b)
				if len(in.Blocks) != len(preds) {
					return errf(b, in, "phi has %d incoming edges, block has %d predecessors", len(in.Blocks), len(preds))
				}
				for _, p := range preds {
					if _, ok := in.PhiIncoming(p); !ok {
						return errf(b, in, "phi missing incoming value for predecessor %%%s", p.Name)
					}
				}
			}
		}
	}

	// Def-use chains: every use-list must match the operands.
	if v, msg := f.checkUses(pos); msg != "" {
		if v == nil {
			return errf(nil, nil, "use-lists %s", msg)
		}
		return errf(v.Parent, v, "use-list %s", msg)
	}

	// Dominance: each use must be dominated by its definition. The
	// dominator tree is built on the first use across blocks.
	var dom *DomTree
	dominates := func(def *Instr, useBlock *Block, useIdx int, usePhiPred *Block) bool {
		db := def.Parent
		if usePhiPred != nil {
			// A phi use must be dominated at the end of the incoming edge.
			useBlock = usePhiPred
			useIdx = len(useBlock.Instrs)
		}
		if db == useBlock {
			return pos[def] < useIdx
		}
		if dom == nil {
			dom = f.Dominators()
		}
		return dom.Dominates(db, useBlock)
	}
	for _, b := range f.Blocks {
		for ii, in := range b.Instrs {
			for oi, op := range in.Operands {
				def, ok := op.(*Instr)
				if !ok {
					continue
				}
				var phiPred *Block
				if in.Op == OpPhi {
					phiPred = in.Blocks[oi]
				}
				if !dominates(def, b, ii, phiPred) {
					return errf(b, in, "use of %%%s is not dominated by its definition", def.Name)
				}
			}
		}
	}
	return nil
}

func checkTypes(in *Instr) error {
	want := func(n int) error {
		if len(in.Operands) != n {
			return fmt.Errorf("%s expects %d operands, has %d", in.Op, n, len(in.Operands))
		}
		return nil
	}
	switch {
	case in.Op.IsIntBinary():
		if err := want(2); err != nil {
			return err
		}
		if !IsInt(in.Operands[0].Type()) || !in.Operands[0].Type().Equal(in.Operands[1].Type()) {
			return fmt.Errorf("integer binary op on mismatched types %s, %s", in.Operands[0].Type(), in.Operands[1].Type())
		}
		if !in.Typ.Equal(in.Operands[0].Type()) {
			return fmt.Errorf("result type %s does not match operand type %s", in.Typ, in.Operands[0].Type())
		}
	case in.Op.IsFloatBinary():
		if err := want(2); err != nil {
			return err
		}
		if !IsFloat(in.Operands[0].Type()) || !in.Operands[0].Type().Equal(in.Operands[1].Type()) {
			return fmt.Errorf("float binary op on mismatched types")
		}
	case in.Op == OpICmp:
		if err := want(2); err != nil {
			return err
		}
		t := in.Operands[0].Type()
		if !IsInt(t) && !IsPointer(t) {
			return fmt.Errorf("icmp on non-integer type %s", t)
		}
		if !t.Equal(in.Operands[1].Type()) {
			return fmt.Errorf("icmp on mismatched types")
		}
	case in.Op == OpFCmp:
		if err := want(2); err != nil {
			return err
		}
		if !IsFloat(in.Operands[0].Type()) {
			return fmt.Errorf("fcmp on non-float type")
		}
	case in.Op == OpLoad:
		if err := want(1); err != nil {
			return err
		}
		pt, ok := in.Operands[0].Type().(PointerType)
		if !ok {
			return fmt.Errorf("load from non-pointer")
		}
		if !in.Typ.Equal(pt.Elem) {
			return fmt.Errorf("load type %s does not match pointee %s", in.Typ, pt.Elem)
		}
	case in.Op == OpStore:
		if err := want(2); err != nil {
			return err
		}
		pt, ok := in.Operands[1].Type().(PointerType)
		if !ok {
			return fmt.Errorf("store to non-pointer")
		}
		if !in.Operands[0].Type().Equal(pt.Elem) {
			return fmt.Errorf("store of %s to %s*", in.Operands[0].Type(), pt.Elem)
		}
	case in.Op == OpGEP:
		t, err := GEPType(in.Operands[0].Type(), in.Operands[1:])
		if err != nil {
			return err
		}
		if !in.Typ.Equal(t) {
			return fmt.Errorf("gep result type %s, want %s", in.Typ, t)
		}
		for _, idx := range in.Operands[1:] {
			if !IsInt(idx.Type()) {
				return fmt.Errorf("gep index is not an integer")
			}
		}
	case in.Op == OpCall:
		if in.Callee == nil {
			return fmt.Errorf("call with nil callee")
		}
		sig := in.Callee.Sig
		if len(in.Operands) != len(sig.Params) {
			return fmt.Errorf("call to @%s with %d args, want %d", in.Callee.Name, len(in.Operands), len(sig.Params))
		}
		for i, a := range in.Operands {
			if !a.Type().Equal(sig.Params[i]) {
				return fmt.Errorf("call arg %d has type %s, want %s", i, a.Type(), sig.Params[i])
			}
		}
		if !in.Typ.Equal(sig.Ret) {
			return fmt.Errorf("call result type %s, want %s", in.Typ, sig.Ret)
		}
	case in.Op.IsCast():
		if err := want(1); err != nil {
			return err
		}
	case in.Op == OpPhi:
		for _, v := range in.Operands {
			if !v.Type().Equal(in.Typ) {
				return fmt.Errorf("phi incoming type %s, want %s", v.Type(), in.Typ)
			}
		}
		if len(in.Operands) != len(in.Blocks) {
			return fmt.Errorf("phi operand/block count mismatch")
		}
	case in.Op == OpSelect:
		if err := want(3); err != nil {
			return err
		}
		if !in.Operands[0].Type().Equal(I1) {
			return fmt.Errorf("select condition is not i1")
		}
		if !in.Operands[1].Type().Equal(in.Operands[2].Type()) {
			return fmt.Errorf("select arms have different types")
		}
	case in.Op == OpBr:
		if len(in.Blocks) != 1 {
			return fmt.Errorf("br needs 1 target")
		}
	case in.Op == OpCondBr:
		if err := want(1); err != nil {
			return err
		}
		if len(in.Blocks) != 2 {
			return fmt.Errorf("condbr needs 2 targets")
		}
		if !in.Operands[0].Type().Equal(I1) {
			return fmt.Errorf("condbr condition is not i1")
		}
	case in.Op == OpRet:
		if len(in.Operands) > 1 {
			return fmt.Errorf("ret with %d operands", len(in.Operands))
		}
	case in.Op == OpAlloca:
		if err := want(1); err != nil {
			return err
		}
		if in.Alloc == nil {
			return fmt.Errorf("alloca without element type")
		}
	default:
		return fmt.Errorf("unknown opcode")
	}
	return nil
}
