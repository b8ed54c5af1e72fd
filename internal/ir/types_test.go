package ir

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestScalarSizes(t *testing.T) {
	cases := []struct {
		typ   Type
		size  int
		align int
		str   string
	}{
		{I1, 1, 1, "i1"},
		{I8, 1, 1, "i8"},
		{I16, 2, 2, "i16"},
		{I32, 4, 4, "i32"},
		{I64, 8, 8, "i64"},
		{F32, 4, 4, "f32"},
		{F64, 8, 8, "f64"},
		{Ptr(I32), 8, 8, "i32*"},
		{Ptr(Ptr(F64)), 8, 8, "f64**"},
		{ArrayOf(10, I32), 40, 4, "[10 x i32]"},
		{ArrayOf(3, ArrayOf(2, I16)), 12, 2, "[3 x [2 x i16]]"},
		{Void, 0, 1, "void"},
	}
	for _, c := range cases {
		if got := c.typ.Size(); got != c.size {
			t.Errorf("%s: size %d, want %d", c.str, got, c.size)
		}
		if got := c.typ.Align(); got != c.align {
			t.Errorf("%s: align %d, want %d", c.str, got, c.align)
		}
		if got := c.typ.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestStructLayout(t *testing.T) {
	// {i8, i32, i8, i64} → offsets 0, 4, 8, 16, size 24, align 8.
	s := &StructType{Fields: []Type{I8, I32, I8, I64}}
	wantOff := []int{0, 4, 8, 16}
	for i, w := range wantOff {
		if got := s.FieldOffset(i); got != w {
			t.Errorf("field %d offset %d, want %d", i, got, w)
		}
	}
	if s.Size() != 24 {
		t.Errorf("size %d, want 24", s.Size())
	}
	if s.Align() != 8 {
		t.Errorf("align %d, want 8", s.Align())
	}
	// Homogeneous struct: offsets are linear in the index.
	h := &StructType{Fields: []Type{I32, I32, I32, I32}}
	for i := range h.Fields {
		if h.FieldOffset(i) != 4*i {
			t.Errorf("homogeneous offset %d != %d", h.FieldOffset(i), 4*i)
		}
	}
	if h.Size() != 16 {
		t.Errorf("homogeneous size %d, want 16", h.Size())
	}
	// Empty struct.
	e := &StructType{}
	if e.Size() != 0 || e.Align() != 1 {
		t.Errorf("empty struct size/align = %d/%d", e.Size(), e.Align())
	}
}

// TestStructLayoutCached: a laid-out struct answers FieldOffset, Size
// and Align as the field walk does, and a struct holding a struct that
// is not laid out yet waits for it.
func TestStructLayoutCached(t *testing.T) {
	inner := func() *StructType { return &StructType{Fields: []Type{I8, I64, I16}} }
	outer := func(in *StructType) *StructType {
		return &StructType{Fields: []Type{I8, ArrayOf(3, in), I32, Ptr(in), I16}}
	}
	walkIn, walkOut := inner(), outer(inner())
	in := inner()
	out := outer(in)
	if out.Layout() {
		t.Fatal("laid out a struct holding a struct that is not laid out")
	}
	if !in.Layout() || !out.Layout() {
		t.Fatal("Layout failed on structs whose parts are laid out")
	}
	for _, c := range []struct{ got, want *StructType }{{in, walkIn}, {out, walkOut}} {
		for i := range c.want.Fields {
			if g, w := c.got.FieldOffset(i), c.want.FieldOffset(i); g != w {
				t.Errorf("%s field %d: offset %d, field walk %d", c.want, i, g, w)
			}
		}
		if c.got.Size() != c.want.Size() || c.got.Align() != c.want.Align() {
			t.Errorf("%s: size/align %d/%d, field walk %d/%d", c.want, c.got.Size(), c.got.Align(), c.want.Size(), c.want.Align())
		}
	}
	if out.Size() != 104 {
		t.Errorf("size %d, want 104", out.Size())
	}
}

func TestTypeEquality(t *testing.T) {
	if !I32.Equal(IntType{Bits: 32}) {
		t.Error("i32 should equal i32")
	}
	if I32.Equal(I64) {
		t.Error("i32 should not equal i64")
	}
	if I32.Equal(F32) {
		t.Error("i32 should not equal f32")
	}
	if !Ptr(I8).Equal(Ptr(I8)) {
		t.Error("i8* should equal i8*")
	}
	if Ptr(I8).Equal(Ptr(I16)) {
		t.Error("i8* should not equal i16*")
	}
	if !ArrayOf(4, F32).Equal(ArrayOf(4, F32)) {
		t.Error("[4 x f32] equality")
	}
	if ArrayOf(4, F32).Equal(ArrayOf(5, F32)) {
		t.Error("array lengths must match")
	}
	// Named structs compare by name.
	a := &StructType{TypeName: "A", Fields: []Type{I32}}
	a2 := &StructType{TypeName: "A", Fields: []Type{I64}}
	b := &StructType{TypeName: "B", Fields: []Type{I32}}
	if !a.Equal(a2) {
		t.Error("same-named structs should be equal")
	}
	if a.Equal(b) {
		t.Error("differently named structs should differ")
	}
	// Anonymous structs compare structurally.
	s1 := &StructType{Fields: []Type{I32, F64}}
	s2 := &StructType{Fields: []Type{I32, F64}}
	s3 := &StructType{Fields: []Type{F64, I32}}
	if !s1.Equal(s2) || s1.Equal(s3) {
		t.Error("anonymous struct structural equality broken")
	}
	// Function types.
	f1 := &FuncType{Ret: I32, Params: []Type{I32, Ptr(I8)}}
	f2 := &FuncType{Ret: I32, Params: []Type{I32, Ptr(I8)}}
	f3 := &FuncType{Ret: Void, Params: []Type{I32, Ptr(I8)}}
	if !f1.Equal(f2) || f1.Equal(f3) {
		t.Error("function type equality broken")
	}
}

func TestBitcastLossless(t *testing.T) {
	cases := []struct {
		a, b Type
		want bool
	}{
		{I32, I32, true},
		{I32, F32, true},
		{I64, F64, true},
		{I64, Ptr(I8), true},
		{I32, I64, false},
		{F32, F64, false},
		{ArrayOf(1, I32), I32, false}, // aggregates never bitcast
		{I8, I8, true},
	}
	for _, c := range cases {
		if got := BitcastLossless(c.a, c.b); got != c.want {
			t.Errorf("BitcastLossless(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAlignUpProperties(t *testing.T) {
	f := func(n uint16, aexp uint8) bool {
		a := 1 << (aexp % 4) // 1,2,4,8
		v := alignUp(int(n), a)
		return v >= int(n) && v%a == 0 && v < int(n)+a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStructOffsetsAligned(t *testing.T) {
	// Property: every field offset is aligned to the field's alignment
	// and offsets are strictly increasing for non-empty fields.
	f := func(kinds []uint8) bool {
		if len(kinds) == 0 || len(kinds) > 12 {
			return true
		}
		var fields []Type
		for _, k := range kinds {
			switch k % 5 {
			case 0:
				fields = append(fields, I8)
			case 1:
				fields = append(fields, I16)
			case 2:
				fields = append(fields, I32)
			case 3:
				fields = append(fields, I64)
			default:
				fields = append(fields, F64)
			}
		}
		s := &StructType{Fields: fields}
		prevEnd := 0
		for i, ft := range fields {
			off := s.FieldOffset(i)
			if off%ft.Align() != 0 {
				return false
			}
			if off < prevEnd {
				return false
			}
			prevEnd = off + ft.Size()
		}
		return s.Size() >= prevEnd && s.Size()%s.Align() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntTypeString(t *testing.T) {
	for bits := 0; bits <= 128; bits++ {
		if got, want := (IntType{Bits: bits}).String(), fmt.Sprintf("i%d", bits); got != want {
			t.Errorf("IntType{%d}.String() = %q, want %q", bits, got, want)
		}
	}
}
