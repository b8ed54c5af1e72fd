package ir

import (
	"math"
	"strconv"
)

// Value is anything that can appear as an instruction operand: constants,
// function parameters, globals, functions (as callees) and instructions.
type Value interface {
	// Type returns the type of the value.
	Type() Type
	// Ident returns the operand spelling of the value, e.g. "%x", "42",
	// "@g". It does not include the type.
	Ident() string
}

// Const is the interface implemented by all constants.
type Const interface {
	Value
	isConst()
}

// IntConst is an integer constant. Val holds the value sign-extended to
// 64 bits regardless of the width of Typ.
type IntConst struct {
	Typ IntType
	Val int64
}

// ConstInt returns an integer constant of type t with value v truncated
// and sign-extended to t's width.
func ConstInt(t IntType, v int64) *IntConst {
	return &IntConst{Typ: t, Val: truncSExt(v, t.Bits)}
}

// ConstBool returns an i1 constant.
func ConstBool(b bool) *IntConst {
	if b {
		return &IntConst{Typ: I1, Val: 1}
	}
	return &IntConst{Typ: I1, Val: 0}
}

func truncSExt(v int64, bits int) int64 {
	if bits >= 64 {
		return v
	}
	shift := uint(64 - bits)
	return v << shift >> shift
}

func (c *IntConst) Type() Type    { return c.Typ }
func (c *IntConst) Ident() string { return strconv.FormatInt(c.Val, 10) }
func (c *IntConst) isConst()      {}

// FloatConst is a floating-point constant.
type FloatConst struct {
	Typ FloatType
	Val float64
}

// ConstFloat returns a floating-point constant of type t.
func ConstFloat(t FloatType, v float64) *FloatConst {
	if t.Bits == 32 {
		v = float64(float32(v))
	}
	return &FloatConst{Typ: t, Val: v}
}

func (c *FloatConst) Type() Type { return c.Typ }

func (c *FloatConst) Ident() string {
	var buf [32]byte
	return string(appendFloat(buf[:0], c.Val))
}

func (c *FloatConst) isConst() {}

// NullConst is the null pointer constant of a given pointer type.
type NullConst struct {
	Typ PointerType
}

// ConstNull returns the null constant of pointer type t.
func ConstNull(t PointerType) *NullConst { return &NullConst{Typ: t} }

func (c *NullConst) Type() Type    { return c.Typ }
func (c *NullConst) Ident() string { return "null" }
func (c *NullConst) isConst()      {}

// UndefConst is an undefined value of any type; used only as a
// placeholder during transformations.
type UndefConst struct {
	Typ Type
}

func (c *UndefConst) Type() Type    { return c.Typ }
func (c *UndefConst) Ident() string { return "undef" }
func (c *UndefConst) isConst()      {}

// ArrayConst is a constant array aggregate, used as a global initializer
// (e.g. the constant mismatch arrays emitted by RoLAG's code generator).
type ArrayConst struct {
	Typ   ArrayType
	Elems []Const
}

func (c *ArrayConst) Type() Type { return c.Typ }

func (c *ArrayConst) Ident() string { return string(appendIdent(nil, c)) }

func (c *ArrayConst) isConst() {}

// ZeroConst is the zero initializer for an aggregate type.
type ZeroConst struct {
	Typ Type
}

func (c *ZeroConst) Type() Type    { return c.Typ }
func (c *ZeroConst) Ident() string { return "zeroinitializer" }
func (c *ZeroConst) isConst()      {}

// ZeroValue returns the zero constant of type t.
func ZeroValue(t Type) Const {
	switch t := t.(type) {
	case IntType:
		return ConstInt(t, 0)
	case FloatType:
		return ConstFloat(t, 0)
	case PointerType:
		return ConstNull(t)
	default:
		return &ZeroConst{Typ: t}
	}
}

// SameConst reports whether two constants denote the same value.
func SameConst(a, b Const) bool {
	switch a := a.(type) {
	case *IntConst:
		b, ok := b.(*IntConst)
		return ok && a.Typ == b.Typ && a.Val == b.Val
	case *FloatConst:
		b, ok := b.(*FloatConst)
		return ok && a.Typ == b.Typ && (a.Val == b.Val || (math.IsNaN(a.Val) && math.IsNaN(b.Val)))
	case *NullConst:
		b, ok := b.(*NullConst)
		return ok && a.Typ.Equal(b.Typ)
	case *ZeroConst:
		b, ok := b.(*ZeroConst)
		return ok && a.Typ.Equal(b.Typ)
	case *ArrayConst:
		b, ok := b.(*ArrayConst)
		if !ok || !a.Typ.Equal(b.Typ) || len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if !SameConst(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	case *UndefConst:
		return false
	}
	return false
}

// Param is a function parameter.
type Param struct {
	Name   string
	Typ    Type
	Parent *Func
}

func (p *Param) Type() Type    { return p.Typ }
func (p *Param) Ident() string { return "%" + p.Name }

// Global is a module-level global variable. Its value type is Elem; as an
// operand it has type Elem*.
type Global struct {
	Name     string
	Elem     Type
	Init     Const // may be nil for external globals
	ReadOnly bool  // constant data (e.g. RoLAG's constant mismatch arrays)
	Parent   *Module
}

func (g *Global) Type() Type    { return Ptr(g.Elem) }
func (g *Global) Ident() string { return "@" + g.Name }

// SameValue reports whether a and b are statically the same value: the
// same SSA definition, or equal constants. This is the "identical value"
// relation used when classifying alignment-graph nodes.
func SameValue(a, b Value) bool {
	if a == b {
		return true
	}
	ca, aok := a.(Const)
	cb, bok := b.(Const)
	if aok && bok {
		return SameConst(ca, cb)
	}
	return false
}

// IsConst reports whether v is a constant.
func IsConst(v Value) bool {
	_, ok := v.(Const)
	return ok
}

// IntValue returns the integer value of v if v is an integer constant.
func IntValue(v Value) (int64, bool) {
	c, ok := v.(*IntConst)
	if !ok {
		return 0, false
	}
	return c.Val, true
}
