package irparse_test

import (
	"strings"
	"testing"
	"time"

	"rolag/internal/cc"
	"rolag/internal/interp"
	"rolag/internal/ir"
	"rolag/internal/irparse"
	"rolag/internal/passes"
	"rolag/internal/rolag"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

func TestParseSimpleModule(t *testing.T) {
	src := `
type %pair = {i32, i32}

@tab = constant [3 x i32] [10, 20, 30]
@g = global i64 7

declare void @ext(i32 %x)
declare i32 @pure_fn(i32 %x) readonly

func i32 @main(i32 %a, i32* %p) {
entry:
  %t = add i32 %a, 5
  %c = icmp slt i32 %t, 100
  condbr i1 %c, %then, %done
then:
  %v = load i32, i32* %p
  %m = mul i32 %v, %t
  store i32 %m, i32* %p
  call void @ext(i32 %m)
  br %done
done:
  %r = phi i32 [0, %entry], [%m, %then]
  ret i32 %r
}
`
	m, err := irparse.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.FindStruct("pair") == nil {
		t.Error("struct not parsed")
	}
	g := m.FindGlobal("tab")
	if g == nil || !g.ReadOnly {
		t.Error("constant global not parsed")
	}
	if f := m.FindFunc("pure_fn"); f == nil || !f.ReadOnly {
		t.Error("readonly declaration not parsed")
	}
	f := m.FindFunc("main")
	if f == nil || len(f.Blocks) != 3 {
		t.Fatalf("main not parsed correctly")
	}
	// Execute it.
	in, err := interp.New(m)
	if err != nil {
		t.Fatal(err)
	}
	addr, aerr := in.Alloc(4, 4)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if err := in.StoreTyped(addr, parseI32(), interp.IntVal(6)); err != nil {
		t.Fatal(err)
	}
	v, err := in.Call("main", interp.IntVal(2), interp.IntVal(addr))
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 42 {
		t.Errorf("main = %d, want 42", v.I)
	}
}

// TestParseForwardStructLayout: a struct that holds a struct defined
// after it is laid out with the later definition's body.
func TestParseForwardStructLayout(t *testing.T) {
	m, err := irparse.ParseModule(`
type %outer = {i8, [2 x %inner], {i8, %inner}}
type %inner = {i32, i64}
`)
	if err != nil {
		t.Fatal(err)
	}
	outer := m.FindStruct("outer")
	if outer == nil {
		t.Fatal("struct not parsed")
	}
	if got := outer.FieldOffset(2); got != 40 {
		t.Errorf("offset of field 2 = %d, want 40", got)
	}
	if got := outer.Size(); got != 64 {
		t.Errorf("size %d, want 64", got)
	}
	if !outer.Layout() {
		t.Error("outer not laid out once its parts are")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`func i32 @f() { entry: ret i32 %nosuch }`,
		`func i32 @f() { entry: br %nowhere }`,
		`func void @f() { entry: %x = frobnicate i32 1, 2 }`,
		`@g = global nonsense 5`,
		`func void @f() { %x = add i32 1, 2 }`, // instruction before label
		`func i32 @f() { entry: ret i32 1`,     // unterminated body
	}
	for i, src := range cases {
		if _, err := irparse.ParseModule(src); err == nil {
			t.Errorf("case %d: expected a parse error", i)
		}
	}
}

// nestedStruct is a type definition whose body is levels tall: levels-1
// nested struct types around an i8.
func nestedStruct(levels int) string {
	n := levels - 1
	return "type %t = " + strings.Repeat("{", n) + "i8" + strings.Repeat("}", n) + "\n"
}

// nestedArray is a global whose type is levels tall: levels-1 nested
// array types around an i8.
func nestedArray(levels int) string {
	n := levels - 1
	return "@g = global " + strings.Repeat("[1 x ", n) + "i8" + strings.Repeat("]", n) + " zeroinitializer\n"
}

// nestedConst is a constant global whose initializer nests levels-1
// array constants deep, matching a type levels tall.
func nestedConst(levels int) string {
	n := levels - 1
	return "@g = constant " + strings.Repeat("[1 x ", n) + "i8" + strings.Repeat("]", n) +
		" " + strings.Repeat("[", n) + "7" + strings.Repeat("]", n) + "\n"
}

// nestedPointer is a type definition whose single field is a pointer
// chain levels-1 tall.
func nestedPointer(levels int) string {
	return "type %t = {i8" + strings.Repeat("*", levels-2) + "}\n"
}

// TestParseDepthLimit: types and constants up to cc.MaxDepth levels
// parse and round-trip; one level more is an ordinary parse error, not
// a stack overflow that kills the process.
func TestParseDepthLimit(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  func(levels int) string
	}{
		{"struct", nestedStruct},
		{"array", nestedArray},
		{"const", nestedConst},
		{"pointer", nestedPointer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src(cc.MaxDepth)
			m, err := irparse.ParseModule(src)
			if err != nil {
				t.Fatalf("%d levels: %v", cc.MaxDepth, err)
			}
			text := m.String()
			parsed, err := irparse.ParseModule(text)
			if err != nil {
				t.Fatalf("%d levels: reparse: %v", cc.MaxDepth, err)
			}
			if parsed.String() != text {
				t.Errorf("%d levels: round-trip differs", cc.MaxDepth)
			}
			if _, err := irparse.ParseModule(tc.src(cc.MaxDepth + 1)); err == nil ||
				!strings.Contains(err.Error(), "deeper than") {
				t.Errorf("%d levels: want a depth error, got %v", cc.MaxDepth+1, err)
			}
		})
	}
	t.Run("struct-2M", func(t *testing.T) {
		start := time.Now()
		_, err := irparse.ParseModule(nestedStruct(2_000_000))
		if err == nil || !strings.Contains(err.Error(), "deeper than") {
			t.Errorf("want a depth error, got %v", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("rejecting took %v, want under 2s", d)
		}
	})
}

func TestRoundTripCorpus(t *testing.T) {
	// Property: print(parse(print(m))) == print(m) for compiled corpus
	// modules, and the parsed module still verifies and behaves the
	// same.
	funcs := angha.Generate(60, 13)
	for _, fn := range funcs {
		m, err := cc.Compile(fn.Src, fn.Name)
		if err != nil {
			t.Fatal(err)
		}
		passes.Standard().Run(m)
		text1 := m.String()
		parsed, err := irparse.ParseModule(text1)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", fn.Name, err, text1)
		}
		text2 := parsed.String()
		if text1 != text2 {
			t.Errorf("%s: round-trip differs:\n--- printed ---\n%s\n--- reparsed ---\n%s", fn.Name, text1, text2)
			continue
		}
		for _, f := range parsed.Funcs {
			if f.IsDecl() || m.FindFunc(f.Name) == nil {
				continue
			}
			if err := interp.CheckEquiv(m, parsed, f.Name, 1, nil); err != nil {
				t.Errorf("%s/@%s: parsed module behaves differently: %v", fn.Name, f.Name, err)
			}
		}
	}
}

func TestRoundTripRolledTSVC(t *testing.T) {
	// Rolled output (with its phis, recurrences and constant pools) must
	// also survive the round trip.
	for _, name := range []string{"s000", "s311", "s451", "vpvtv"} {
		kr := tsvc.Find(name)
		m, err := cc.Compile(kr.Src, kr.Name)
		if err != nil {
			t.Fatal(err)
		}
		passes.Standard().Run(m)
		rolag.RollModule(m, nil)
		passes.Standard().Run(m)
		text := m.String()
		parsed, err := irparse.ParseModule(text)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, text)
		}
		if parsed.String() != text {
			t.Errorf("%s: rolled module round-trip differs", name)
		}
	}
}

func parseI32() ir.IntType { return ir.I32 }
