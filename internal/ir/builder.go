package ir

import "fmt"

// Builder constructs instructions appended at the end of a current block
// (or at a chosen insertion point), computing result types and assigning
// unique SSA names.
type Builder struct {
	Func  *Func
	Block *Block
	// At is the insertion index within Block, or -1 to append.
	At int
}

// NewBuilder returns a builder appending to block b.
func NewBuilder(b *Block) *Builder {
	return &Builder{Func: b.Parent, Block: b, At: -1}
}

// SetBlock moves the builder to append at the end of b.
func (bd *Builder) SetBlock(b *Block) {
	bd.Block = b
	bd.At = -1
}

func (bd *Builder) insert(in *Instr) *Instr {
	if !IsVoid(in.Typ) && in.Name == "" {
		in.Name = bd.Func.uniqueName("t")
	}
	if bd.At < 0 {
		bd.Block.Append(in)
	} else {
		bd.Block.InsertAt(bd.At, in)
		bd.At++
	}
	return in
}

// Named sets the name hint for the next instruction built.
func (bd *Builder) named(name string, in *Instr) *Instr {
	if name != "" && !IsVoid(in.Typ) {
		in.Name = bd.Func.uniqueName(name)
	}
	return bd.insert(in)
}

// Bin builds a binary operation.
func (bd *Builder) Bin(op Op, lhs, rhs Value) *Instr {
	if !op.IsBinary() {
		panic(fmt.Sprintf("ir: Bin called with non-binary op %s", op))
	}
	return bd.insert(&Instr{Op: op, Typ: lhs.Type(), Operands: []Value{lhs, rhs}})
}

// Add builds an integer add.
func (bd *Builder) Add(lhs, rhs Value) *Instr { return bd.Bin(OpAdd, lhs, rhs) }

// Sub builds an integer sub.

// Mul builds an integer mul.
func (bd *Builder) Mul(lhs, rhs Value) *Instr { return bd.Bin(OpMul, lhs, rhs) }

// ICmp builds an integer comparison producing an i1.
func (bd *Builder) ICmp(p Pred, lhs, rhs Value) *Instr {
	return bd.insert(&Instr{Op: OpICmp, Typ: I1, Pred: p, Operands: []Value{lhs, rhs}})
}

// FCmp builds a floating-point comparison producing an i1.
func (bd *Builder) FCmp(p Pred, lhs, rhs Value) *Instr {
	return bd.insert(&Instr{Op: OpFCmp, Typ: I1, Pred: p, Operands: []Value{lhs, rhs}})
}

// Alloca builds a stack allocation of count elements of type elem,
// producing an elem*.
func (bd *Builder) Alloca(elem Type, count Value, name string) *Instr {
	if count == nil {
		count = ConstInt(I64, 1)
	}
	return bd.named(name, &Instr{Op: OpAlloca, Typ: Ptr(elem), Alloc: elem, Operands: []Value{count}})
}

// Load builds a load from ptr.
func (bd *Builder) Load(ptr Value) *Instr {
	pt, ok := ptr.Type().(PointerType)
	if !ok {
		panic("ir: Load from non-pointer")
	}
	return bd.insert(&Instr{Op: OpLoad, Typ: pt.Elem, Operands: []Value{ptr}})
}

// Store builds a store of val to ptr.
func (bd *Builder) Store(val, ptr Value) *Instr {
	return bd.insert(&Instr{Op: OpStore, Typ: Void, Operands: []Value{val, ptr}})
}

// GEPType computes the result type of a gep with the given base type and
// index count/values. The first index steps over the pointee; subsequent
// indices drill into aggregates.
func GEPType(base Type, indices []Value) (Type, error) {
	pt, ok := base.(PointerType)
	if !ok {
		return nil, fmt.Errorf("ir: gep base is not a pointer: %s", base)
	}
	if len(indices) == 0 {
		return nil, fmt.Errorf("ir: gep requires at least one index")
	}
	cur := pt.Elem
	for _, idx := range indices[1:] {
		switch t := cur.(type) {
		case ArrayType:
			cur = t.Elem
		case *StructType:
			c, ok := idx.(*IntConst)
			if !ok {
				return nil, fmt.Errorf("ir: gep struct index must be a constant")
			}
			if c.Val < 0 || int(c.Val) >= len(t.Fields) {
				return nil, fmt.Errorf("ir: gep struct index %d out of range for %s", c.Val, t)
			}
			cur = t.Fields[c.Val]
		default:
			return nil, fmt.Errorf("ir: gep into non-aggregate type %s", cur)
		}
	}
	return Ptr(cur), nil
}

// GEP builds a getelementptr: base is a pointer, indices index into the
// pointee.
func (bd *Builder) GEP(base Value, indices ...Value) *Instr {
	t, err := GEPType(base.Type(), indices)
	if err != nil {
		panic(err)
	}
	ops := append([]Value{base}, indices...)
	return bd.insert(&Instr{Op: OpGEP, Typ: t, Operands: ops})
}

// Call builds a call to callee with the given arguments.
func (bd *Builder) Call(callee *Func, args ...Value) *Instr {
	return bd.insert(&Instr{Op: OpCall, Typ: callee.Sig.Ret, Callee: callee, Operands: args})
}

// Cast builds a conversion of val to type to.
func (bd *Builder) Cast(op Op, val Value, to Type) *Instr {
	if !op.IsCast() {
		panic(fmt.Sprintf("ir: Cast called with non-cast op %s", op))
	}
	return bd.insert(&Instr{Op: op, Typ: to, Operands: []Value{val}})
}

// Phi builds a phi node of type t. Incoming edges are added with
// AddIncoming.
func (bd *Builder) Phi(t Type, name string) *Instr {
	return bd.named(name, &Instr{Op: OpPhi, Typ: t})
}

// AddIncoming appends an incoming (value, predecessor) edge to phi.
func AddIncoming(phi *Instr, v Value, pred *Block) {
	if phi.Op != OpPhi {
		panic("ir: AddIncoming on non-phi")
	}
	phi.Operands = append(phi.Operands, v)
	phi.Blocks = append(phi.Blocks, pred)
	if d, ok := v.(*Instr); ok && phi.attached() && phi.count(v) == 1 {
		d.users = append(d.users, phi)
	}
}

// Select builds a select cond ? ifTrue : ifFalse.
func (bd *Builder) Select(cond, ifTrue, ifFalse Value) *Instr {
	return bd.insert(&Instr{Op: OpSelect, Typ: ifTrue.Type(), Operands: []Value{cond, ifTrue, ifFalse}})
}

// Br builds an unconditional branch to target.
func (bd *Builder) Br(target *Block) *Instr {
	return bd.insert(&Instr{Op: OpBr, Typ: Void, Blocks: []*Block{target}})
}

// CondBr builds a conditional branch.
func (bd *Builder) CondBr(cond Value, ifTrue, ifFalse *Block) *Instr {
	return bd.insert(&Instr{Op: OpCondBr, Typ: Void, Operands: []Value{cond}, Blocks: []*Block{ifTrue, ifFalse}})
}

// Ret builds a return; val may be nil for void functions.
func (bd *Builder) Ret(val Value) *Instr {
	in := &Instr{Op: OpRet, Typ: Void}
	if val != nil {
		in.Operands = []Value{val}
	}
	return bd.insert(in)
}
