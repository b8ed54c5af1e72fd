package ir

import (
	"math"
	"strconv"
)

// The printer appends text to a byte slice. Every String method sizes
// its buffer from an estimate and returns an exact copy of it: the
// service cache keeps printed IR for as long as the entry lives, and a
// string cut from a growth buffer would keep the spare capacity too.

// bytesPerInstr is the estimated printed length of one instruction
// line: a little above the 29–36 bytes measured on the Angha and
// unrolled TSVC corpora, so that the buffer seldom grows.
const bytesPerInstr = 40

// String returns the textual form of the module. The format round-trips
// through irparse.ParseModule.
func (m *Module) String() string {
	n := 64 * (len(m.Structs) + len(m.Globals))
	for _, f := range m.Funcs {
		n += f.printEstimate()
	}
	return string(m.appendTo(make([]byte, 0, n)))
}

func (m *Module) appendTo(b []byte) []byte {
	for _, s := range m.Structs {
		b = append(b, "type %"...)
		b = append(b, s.TypeName...)
		b = append(b, " = "...)
		b = appendFields(b, s.Fields)
		b = append(b, '\n')
	}
	if len(m.Structs) > 0 {
		b = append(b, '\n')
	}
	for _, g := range m.Globals {
		b = append(b, '@')
		b = append(b, g.Name...)
		if g.ReadOnly {
			b = append(b, " = constant "...)
		} else {
			b = append(b, " = global "...)
		}
		b = appendType(b, g.Elem)
		if g.Init != nil {
			b = append(b, ' ')
			b = appendIdent(b, g.Init)
		}
		b = append(b, '\n')
	}
	if len(m.Globals) > 0 {
		b = append(b, '\n')
	}
	for i, f := range m.Funcs {
		if i > 0 {
			b = append(b, '\n')
		}
		b = f.appendTo(b)
	}
	return b
}

// printEstimate is the estimated printed length of f.
func (f *Func) printEstimate() int {
	n := 64 + 16*len(f.Params)
	for _, blk := range f.Blocks {
		n += len(blk.Name) + 2 + bytesPerInstr*len(blk.Instrs)
	}
	return n
}

// String returns the textual form of the function.
func (f *Func) String() string {
	return string(f.appendTo(make([]byte, 0, f.printEstimate())))
}

func (f *Func) appendTo(b []byte) []byte {
	if f.IsDecl() {
		b = append(b, "declare "...)
	} else {
		b = append(b, "func "...)
	}
	b = appendType(b, f.Sig.Ret)
	b = append(b, " @"...)
	b = append(b, f.Name...)
	b = append(b, '(')
	for i, p := range f.Params {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendType(b, p.Typ)
		b = append(b, " %"...)
		b = append(b, p.Name...)
	}
	b = append(b, ')')
	if f.IsDecl() {
		if f.ReadOnly {
			b = append(b, " readonly"...)
		}
		return append(b, '\n')
	}
	b = append(b, " {\n"...)
	for _, blk := range f.Blocks {
		b = append(b, blk.Name...)
		b = append(b, ":\n"...)
		for _, in := range blk.Instrs {
			b = append(b, "  "...)
			b = appendInstr(b, in)
			b = append(b, '\n')
		}
	}
	return append(b, "}\n"...)
}

// String returns the textual form of the instruction.
func (in *Instr) String() string {
	return string(appendInstr(make([]byte, 0, 2*bytesPerInstr), in))
}

func appendInstr(b []byte, in *Instr) []byte {
	if !IsVoid(in.Typ) && in.Name != "" {
		b = append(b, '%')
		b = append(b, in.Name...)
		b = append(b, " = "...)
	}
	switch {
	case in.Op.IsBinary():
		b = append(b, in.Op.String()...)
		b = append(b, ' ')
		b = appendTyped(b, in.Operands[0])
		b = append(b, ", "...)
		b = appendIdent(b, in.Operands[1])
	case in.Op == OpICmp || in.Op == OpFCmp:
		b = append(b, in.Op.String()...)
		b = append(b, ' ')
		b = append(b, in.Pred.String()...)
		b = append(b, ' ')
		b = appendTyped(b, in.Operands[0])
		b = append(b, ", "...)
		b = appendIdent(b, in.Operands[1])
	case in.Op == OpAlloca:
		b = append(b, "alloca "...)
		b = appendType(b, in.Alloc)
		b = append(b, ", "...)
		b = appendTyped(b, in.Operands[0])
	case in.Op == OpLoad:
		b = append(b, "load "...)
		b = appendType(b, in.Typ)
		b = append(b, ", "...)
		b = appendTyped(b, in.Operands[0])
	case in.Op == OpStore:
		b = append(b, "store "...)
		b = appendTyped(b, in.Operands[0])
		b = append(b, ", "...)
		b = appendTyped(b, in.Operands[1])
	case in.Op == OpGEP:
		b = append(b, "gep "...)
		for i, v := range in.Operands {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendTyped(b, v)
		}
	case in.Op == OpCall:
		b = append(b, "call "...)
		b = appendType(b, in.Typ)
		b = append(b, " @"...)
		b = append(b, in.Callee.Name...)
		b = append(b, '(')
		for i, a := range in.Operands {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendTyped(b, a)
		}
		b = append(b, ')')
	case in.Op.IsCast():
		b = append(b, in.Op.String()...)
		b = append(b, ' ')
		b = appendTyped(b, in.Operands[0])
		b = append(b, " to "...)
		b = appendType(b, in.Typ)
	case in.Op == OpPhi:
		b = append(b, "phi "...)
		b = appendType(b, in.Typ)
		b = append(b, ' ')
		for i, v := range in.Operands {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, '[')
			b = appendIdent(b, v)
			b = append(b, ", %"...)
			b = append(b, in.Blocks[i].Name...)
			b = append(b, ']')
		}
	case in.Op == OpSelect:
		b = append(b, "select "...)
		b = appendTyped(b, in.Operands[0])
		b = append(b, ", "...)
		b = appendTyped(b, in.Operands[1])
		b = append(b, ", "...)
		b = appendTyped(b, in.Operands[2])
	case in.Op == OpBr:
		b = append(b, "br %"...)
		b = append(b, in.Blocks[0].Name...)
	case in.Op == OpCondBr:
		b = append(b, "condbr "...)
		b = appendTyped(b, in.Operands[0])
		b = append(b, ", %"...)
		b = append(b, in.Blocks[0].Name...)
		b = append(b, ", %"...)
		b = append(b, in.Blocks[1].Name...)
	case in.Op == OpRet:
		if len(in.Operands) == 0 {
			b = append(b, "ret void"...)
		} else {
			b = append(b, "ret "...)
			b = appendTyped(b, in.Operands[0])
		}
	default:
		b = append(b, "<invalid op "...)
		b = strconv.AppendInt(b, int64(in.Op), 10)
		b = append(b, '>')
	}
	return b
}

// appendTyped appends an operand with its type, e.g. "i32 %x".
func appendTyped(b []byte, v Value) []byte {
	// The pointer types of globals and nulls print from their element
	// type: boxing a PointerType as a Type allocates.
	switch v := v.(type) {
	case *Global:
		b = append(appendType(b, v.Elem), '*')
	case *NullConst:
		b = append(appendType(b, v.Typ.Elem), '*')
	default:
		b = appendType(b, v.Type())
	}
	b = append(b, ' ')
	return appendIdent(b, v)
}

// appendType appends the textual form of t (Type.String).
func appendType(b []byte, t Type) []byte {
	switch t := t.(type) {
	case IntType:
		return append(b, t.String()...)
	case FloatType:
		return append(b, t.String()...)
	case PointerType:
		return append(appendType(b, t.Elem), '*')
	case ArrayType:
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(t.Len), 10)
		b = append(b, " x "...)
		return append(appendType(b, t.Elem), ']')
	case *StructType:
		if t.TypeName != "" {
			return append(append(b, '%'), t.TypeName...)
		}
		return appendFields(b, t.Fields)
	case *FuncType:
		b = appendType(b, t.Ret)
		b = append(b, " ("...)
		return append(appendTypes(b, t.Params), ')')
	case nil:
		// As fmt spells a nil operand of %s.
		return append(b, "%!s(<nil>)"...)
	}
	return append(b, t.String()...)
}

// appendFields appends "{t1, t2, ...}".
func appendFields(b []byte, ts []Type) []byte {
	return append(appendTypes(append(b, '{'), ts), '}')
}

// appendTypes appends "t1, t2, ...".
func appendTypes(b []byte, ts []Type) []byte {
	for i, t := range ts {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendType(b, t)
	}
	return b
}

// appendIdent appends the operand spelling of v (Value.Ident).
func appendIdent(b []byte, v Value) []byte {
	switch v := v.(type) {
	case *Instr:
		if v.Name == "" {
			return append(b, "%<void>"...)
		}
		return append(append(b, '%'), v.Name...)
	case *Param:
		return append(append(b, '%'), v.Name...)
	case *Global:
		return append(append(b, '@'), v.Name...)
	case *Func:
		return append(append(b, '@'), v.Name...)
	case *IntConst:
		return strconv.AppendInt(b, v.Val, 10)
	case *FloatConst:
		return appendFloat(b, v.Val)
	case *ArrayConst:
		b = append(b, '[')
		for i, e := range v.Elems {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendIdent(b, e)
		}
		return append(b, ']')
	}
	return append(b, v.Ident()...)
}

// appendFloat appends a float constant's spelling: the shortest 'g'
// form, with ".0" added when that would read as an integer.
func appendFloat(b []byte, v float64) []byte {
	if math.IsInf(v, 1) {
		return append(b, "+inf"...)
	}
	if math.IsInf(v, -1) {
		return append(b, "-inf"...)
	}
	start := len(b)
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	for _, c := range b[start:] {
		if c == '.' || c == 'e' || c == 'n' || c == 'i' {
			return b
		}
	}
	return append(b, ".0"...)
}
