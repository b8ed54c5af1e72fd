package ir

import (
	"slices"
	"strconv"
)

// Op identifies the operation an instruction performs.
type Op int

// Instruction opcodes.
const (
	OpInvalid Op = iota

	// Integer binary operations.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpUDiv
	OpSRem
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Floating-point binary operations.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Comparisons.
	OpICmp
	OpFCmp

	// Memory.
	OpAlloca
	OpLoad
	OpStore
	OpGEP

	// Calls.
	OpCall

	// Conversions.
	OpTrunc
	OpZExt
	OpSExt
	OpFPTrunc
	OpFPExt
	OpFPToSI
	OpSIToFP
	OpPtrToInt
	OpIntToPtr
	OpBitcast

	// Other.
	OpPhi
	OpSelect

	// Terminators.
	OpBr
	OpCondBr
	OpRet

	// NumOps is the number of opcodes, OpInvalid included: it sizes
	// tables indexed by Op.
	NumOps
)

var opNames = [NumOps]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpUDiv: "udiv",
	OpSRem: "srem", OpURem: "urem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "gep",
	OpCall:  "call",
	OpTrunc: "trunc", OpZExt: "zext", OpSExt: "sext", OpFPTrunc: "fptrunc",
	OpFPExt: "fpext", OpFPToSI: "fptosi", OpSIToFP: "sitofp",
	OpPtrToInt: "ptrtoint", OpIntToPtr: "inttoptr", OpBitcast: "bitcast",
	OpPhi: "phi", OpSelect: "select",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret",
}

func (op Op) String() string {
	if op > OpInvalid && op < NumOps {
		return opNames[op]
	}
	return "op(" + strconv.Itoa(int(op)) + ")"
}

// IsBinary reports whether op is an integer or floating-point binary
// arithmetic/logical operation.
func (op Op) IsBinary() bool { return op >= OpAdd && op <= OpFDiv }

// IsIntBinary reports whether op is an integer binary operation.
func (op Op) IsIntBinary() bool { return op >= OpAdd && op <= OpAShr }

// IsFloatBinary reports whether op is a floating-point binary operation.
func (op Op) IsFloatBinary() bool { return op >= OpFAdd && op <= OpFDiv }

// IsCast reports whether op is a conversion.
func (op Op) IsCast() bool { return op >= OpTrunc && op <= OpBitcast }

// IsTerminator reports whether op terminates a basic block.
func (op Op) IsTerminator() bool { return op == OpBr || op == OpCondBr || op == OpRet }

// IsCommutative reports whether the operands of op may be swapped.
func (op Op) IsCommutative() bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpFAdd, OpFMul:
		return true
	}
	return false
}

// IsAssociative reports whether op is associative. Floating-point
// operations are only associative under fast-math, which callers must
// gate explicitly (see rolag.Options.FastMath).
func (op Op) IsAssociative() bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor:
		return true
	}
	return false
}

// NeutralElement returns the neutral (identity) element of op for type t,
// or nil if op has none: x op neutral == x.
func (op Op) NeutralElement(t Type) Const {
	switch op {
	case OpAdd, OpSub, OpOr, OpXor, OpShl, OpLShr, OpAShr:
		if it, ok := t.(IntType); ok {
			return ConstInt(it, 0)
		}
	case OpMul, OpSDiv, OpUDiv:
		if it, ok := t.(IntType); ok {
			return ConstInt(it, 1)
		}
	case OpAnd:
		if it, ok := t.(IntType); ok {
			return ConstInt(it, -1)
		}
	case OpFAdd, OpFSub:
		if ft, ok := t.(FloatType); ok {
			return ConstFloat(ft, 0)
		}
	case OpFMul, OpFDiv:
		if ft, ok := t.(FloatType); ok {
			return ConstFloat(ft, 1)
		}
	}
	return nil
}

// Pred is a comparison predicate for icmp and fcmp.
type Pred int

// Comparison predicates. The O-prefixed predicates are ordered
// floating-point comparisons.
const (
	PredInvalid Pred = iota
	PredEQ
	PredNE
	PredSLT
	PredSLE
	PredSGT
	PredSGE
	PredULT
	PredULE
	PredUGT
	PredUGE
	PredOEQ
	PredONE
	PredOLT
	PredOLE
	PredOGT
	PredOGE
)

var predNames = [...]string{
	PredEQ: "eq", PredNE: "ne",
	PredSLT: "slt", PredSLE: "sle", PredSGT: "sgt", PredSGE: "sge",
	PredULT: "ult", PredULE: "ule", PredUGT: "ugt", PredUGE: "uge",
	PredOEQ: "oeq", PredONE: "one",
	PredOLT: "olt", PredOLE: "ole", PredOGT: "ogt", PredOGE: "oge",
}

func (p Pred) String() string {
	if p > PredInvalid && int(p) < len(predNames) {
		return predNames[p]
	}
	return "pred(" + strconv.Itoa(int(p)) + ")"
}

// Instr is a single IR instruction. All instruction kinds share this
// struct; Op selects the operation, Operands holds the SSA operands, and
// the remaining fields are used only by the kinds that need them.
//
// Operand layout by opcode:
//
//	binary ops       [lhs, rhs]
//	icmp/fcmp        [lhs, rhs]           (Pred set)
//	alloca           [count]              (Alloc set to the element type)
//	load             [ptr]
//	store            [val, ptr]
//	gep              [base, idx...]
//	call             [arg...]             (Callee set)
//	casts            [val]
//	phi              [incoming...]        (Blocks parallel to Operands)
//	select           [cond, ifTrue, ifFalse]
//	br               []                   (Blocks[0] = target)
//	condbr           [cond]               (Blocks[0] = true, Blocks[1] = false)
//	ret              [] or [val]
type Instr struct {
	Name     string // SSA name; empty for void-typed instructions
	Op       Op
	Typ      Type
	Operands []Value
	Blocks   []*Block // phi incoming blocks or branch targets
	Pred     Pred     // icmp/fcmp predicate
	Callee   *Func    // call target
	Alloc    Type     // alloca element type
	Parent   *Block

	users []*Instr // distinct attached users, maintained by the mutators
	mark  bool     // scratch flag of linear-time walks; false between them
}

func (in *Instr) Type() Type { return in.Typ }

func (in *Instr) Ident() string {
	if in.Name == "" {
		return "%<void>"
	}
	return "%" + in.Name
}

// NumOperands returns the number of SSA operands.
func (in *Instr) NumOperands() int { return len(in.Operands) }

// Operand returns the i-th operand.
func (in *Instr) Operand(i int) Value { return in.Operands[i] }

// SetOperand replaces the i-th operand. Operand edits of attached
// instructions must go through SetOperand, ReplaceUsesOf, AddIncoming
// or RemoveIncoming, which keep the def-use chains current.
func (in *Instr) SetOperand(i int, v Value) {
	old := in.Operands[i]
	if old == v {
		return
	}
	in.Operands[i] = v
	if !in.attached() {
		return
	}
	if d, ok := old.(*Instr); ok && in.count(old) == 0 {
		d.dropUser(in)
	}
	if d, ok := v.(*Instr); ok && in.count(v) == 1 {
		d.users = append(d.users, in)
	}
}

// RemoveIncoming deletes the i-th incoming (value, block) edge of a phi.
func (in *Instr) RemoveIncoming(i int) {
	old := in.Operands[i]
	in.Operands = slices.Delete(in.Operands, i, i+1)
	in.Blocks = slices.Delete(in.Blocks, i, i+1)
	if d, ok := old.(*Instr); ok && in.attached() && in.count(old) == 0 {
		d.dropUser(in)
	}
}

// IsTerminator reports whether the instruction terminates its block.
func (in *Instr) IsTerminator() bool { return in.Op.IsTerminator() }

// MayWriteMemory reports whether executing the instruction may write
// memory or have other side effects visible outside the function.
func (in *Instr) MayWriteMemory() bool {
	switch in.Op {
	case OpStore:
		return true
	case OpCall:
		// Conservative: any call may write memory unless it is known
		// read-only.
		return in.Callee == nil || !in.Callee.ReadOnly
	}
	return false
}

// MayReadMemory reports whether executing the instruction may read memory.
func (in *Instr) MayReadMemory() bool {
	switch in.Op {
	case OpLoad, OpCall:
		return true
	}
	return false
}

// HasMemoryEffect reports whether the instruction reads or writes memory
// (and therefore may not be reordered with conflicting accesses).
func (in *Instr) HasMemoryEffect() bool {
	return in.MayReadMemory() || in.MayWriteMemory()
}

// PhiIncoming returns the incoming value for predecessor block b of a phi.
func (in *Instr) PhiIncoming(b *Block) (Value, bool) {
	for i, blk := range in.Blocks {
		if blk == b {
			return in.Operands[i], true
		}
	}
	return nil, false
}

// ReplaceUsesOf replaces every operand equal to old with new. It returns
// the number of replacements.
func (in *Instr) ReplaceUsesOf(old, new Value) int {
	if old == new {
		return in.count(old)
	}
	n, hadNew := 0, false
	for i, op := range in.Operands {
		switch op {
		case old:
			in.Operands[i] = new
			n++
		case new:
			hadNew = true
		}
	}
	if n == 0 || !in.attached() {
		return n
	}
	if d, ok := old.(*Instr); ok {
		d.dropUser(in)
	}
	if d, ok := new.(*Instr); ok && !hadNew {
		d.users = append(d.users, in)
	}
	return n
}

// Index returns the position of the instruction in its parent block, or
// -1 if detached.
func (in *Instr) Index() int {
	if in.Parent == nil {
		return -1
	}
	return slices.Index(in.Parent.Instrs, in)
}
