// Package ir implements a typed SSA intermediate representation in the
// style of LLVM IR: modules hold globals and functions, functions hold
// basic blocks, and blocks hold instructions in static single assignment
// form. The package provides construction (Builder), verification,
// printing, cloning, and use-def utilities. It is the substrate on which
// the RoLAG loop-rolling optimization and the loop-rerolling baseline
// operate.
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is the interface implemented by all IR types. Types are compared
// structurally with Equal; named struct types compare by identity of the
// name when both are named.
type Type interface {
	// String returns the textual form of the type (e.g. "i32", "f64*").
	String() string
	// Size returns the store size of the type in bytes under the fixed
	// x86-64-flavoured data layout used throughout this project.
	Size() int
	// Align returns the ABI alignment of the type in bytes.
	Align() int
	// Equal reports whether t and u are the same type.
	Equal(u Type) bool
}

// VoidType is the type of instructions that produce no value.
type VoidType struct{}

func (VoidType) String() string    { return "void" }
func (VoidType) Size() int         { return 0 }
func (VoidType) Align() int        { return 1 }
func (VoidType) Equal(u Type) bool { _, ok := u.(VoidType); return ok }

// IntType is an integer type of a fixed bit width. Width 1 is the boolean
// type produced by comparisons.
type IntType struct {
	Bits int
}

func (t IntType) String() string {
	// The frontend's widths spell without allocating.
	switch t.Bits {
	case 1:
		return "i1"
	case 8:
		return "i8"
	case 16:
		return "i16"
	case 32:
		return "i32"
	case 64:
		return "i64"
	}
	return "i" + strconv.Itoa(t.Bits)
}

func (t IntType) Size() int {
	if t.Bits <= 8 {
		return 1
	}
	return t.Bits / 8
}

func (t IntType) Align() int { return t.Size() }

func (t IntType) Equal(u Type) bool {
	v, ok := u.(IntType)
	return ok && v.Bits == t.Bits
}

// FloatType is a binary floating-point type (32 or 64 bits).
type FloatType struct {
	Bits int
}

func (t FloatType) String() string {
	if t.Bits == 32 {
		return "f32"
	}
	return "f64"
}

func (t FloatType) Size() int  { return t.Bits / 8 }
func (t FloatType) Align() int { return t.Bits / 8 }

func (t FloatType) Equal(u Type) bool {
	v, ok := u.(FloatType)
	return ok && v.Bits == t.Bits
}

// PointerType is a typed pointer. All pointers are 8 bytes.
type PointerType struct {
	Elem Type
}

func (t PointerType) String() string { return t.Elem.String() + "*" }
func (t PointerType) Size() int      { return 8 }
func (t PointerType) Align() int     { return 8 }

func (t PointerType) Equal(u Type) bool {
	v, ok := u.(PointerType)
	return ok && v.Elem.Equal(t.Elem)
}

// ArrayType is a fixed-length array.
type ArrayType struct {
	Elem Type
	Len  int
}

func (t ArrayType) String() string { return fmt.Sprintf("[%d x %s]", t.Len, t.Elem) }
func (t ArrayType) Size() int      { return t.Len * t.Elem.Size() }
func (t ArrayType) Align() int     { return t.Elem.Align() }

func (t ArrayType) Equal(u Type) bool {
	v, ok := u.(ArrayType)
	return ok && v.Len == t.Len && v.Elem.Equal(t.Elem)
}

// StructType is a struct with laid-out fields. A StructType may be named,
// in which case two named struct types are equal iff their names are
// equal; anonymous struct types compare structurally.
type StructType struct {
	TypeName string
	Fields   []Type
	// layout caches the field offsets, size and alignment once Layout
	// has computed them; nil means they are computed on every query.
	layout *structLayout
}

type structLayout struct {
	offsets     []int
	size, align int
}

// Layout computes t's field offsets, size and alignment once, so that
// FieldOffset, Size and Align stop walking the fields. Call it after
// the body is set and no longer changes. It reports whether t is laid
// out: a struct holding another struct by value, directly or in an
// array, waits until that struct is laid out itself (its body may not
// be known yet), and t is then still answered field by field.
func (t *StructType) Layout() bool {
	if t.layout != nil {
		return true
	}
	for _, f := range t.Fields {
		if !laidOut(f) {
			return false
		}
	}
	l := &structLayout{offsets: make([]int, len(t.Fields)), align: t.fieldAlign()}
	off := 0
	for i, f := range t.Fields {
		off = alignUp(off, f.Align())
		l.offsets[i] = off
		off += f.Size()
	}
	if len(t.Fields) > 0 {
		l.size = alignUp(off, l.align)
	}
	t.layout = l
	return true
}

// laidOut reports whether every struct t holds by value is laid out.
func laidOut(t Type) bool {
	switch t := t.(type) {
	case *StructType:
		return t.layout != nil
	case ArrayType:
		return laidOut(t.Elem)
	}
	return true
}

func (t *StructType) String() string {
	if t.TypeName != "" {
		return "%" + t.TypeName
	}
	parts := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FieldOffset returns the byte offset of field i under natural alignment.
func (t *StructType) FieldOffset(i int) int {
	if t.layout != nil {
		return t.layout.offsets[i]
	}
	off := 0
	for j := 0; j < i; j++ {
		off = alignUp(off, t.Fields[j].Align())
		off += t.Fields[j].Size()
	}
	return alignUp(off, t.Fields[i].Align())
}

func (t *StructType) Size() int {
	if t.layout != nil {
		return t.layout.size
	}
	if len(t.Fields) == 0 {
		return 0
	}
	last := len(t.Fields) - 1
	end := t.FieldOffset(last) + t.Fields[last].Size()
	return alignUp(end, t.Align())
}

func (t *StructType) Align() int {
	if t.layout != nil {
		return t.layout.align
	}
	return t.fieldAlign()
}

// fieldAlign is the largest alignment of t's fields (1 without any).
func (t *StructType) fieldAlign() int {
	a := 1
	for _, f := range t.Fields {
		if f.Align() > a {
			a = f.Align()
		}
	}
	return a
}

func (t *StructType) Equal(u Type) bool {
	v, ok := u.(*StructType)
	if !ok {
		return false
	}
	if t == v {
		return true
	}
	if t.TypeName != "" || v.TypeName != "" {
		return t.TypeName == v.TypeName
	}
	if len(t.Fields) != len(v.Fields) {
		return false
	}
	for i := range t.Fields {
		if !t.Fields[i].Equal(v.Fields[i]) {
			return false
		}
	}
	return true
}

// FuncType is the type of a function: a return type and parameter types.
type FuncType struct {
	Ret    Type
	Params []Type
}

func (t *FuncType) String() string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.String()
	}
	return fmt.Sprintf("%s (%s)", t.Ret, strings.Join(parts, ", "))
}

func (t *FuncType) Size() int  { return 0 }
func (t *FuncType) Align() int { return 1 }

func (t *FuncType) Equal(u Type) bool {
	v, ok := u.(*FuncType)
	if !ok || !v.Ret.Equal(t.Ret) || len(v.Params) != len(t.Params) {
		return false
	}
	for i := range t.Params {
		if !t.Params[i].Equal(v.Params[i]) {
			return false
		}
	}
	return true
}

func alignUp(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// Common type singletons.
var (
	Void = VoidType{}
	I1   = IntType{Bits: 1}
	I8   = IntType{Bits: 8}
	I16  = IntType{Bits: 16}
	I32  = IntType{Bits: 32}
	I64  = IntType{Bits: 64}
	F32  = FloatType{Bits: 32}
	F64  = FloatType{Bits: 64}
)

// Ptr returns the pointer type to elem.
func Ptr(elem Type) PointerType { return PointerType{Elem: elem} }

// ArrayOf returns the array type [n x elem].
func ArrayOf(n int, elem Type) ArrayType { return ArrayType{Elem: elem, Len: n} }

// IsInt reports whether t is an integer type.
func IsInt(t Type) bool { _, ok := t.(IntType); return ok }

// IsFloat reports whether t is a floating-point type.
func IsFloat(t Type) bool { _, ok := t.(FloatType); return ok }

// IsPointer reports whether t is a pointer type.
func IsPointer(t Type) bool { _, ok := t.(PointerType); return ok }

// IsVoid reports whether t is the void type.
func IsVoid(t Type) bool { _, ok := t.(VoidType); return ok }
