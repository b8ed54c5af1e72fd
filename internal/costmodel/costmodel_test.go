package costmodel_test

import (
	"strings"
	"testing"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/cc"
	"rolag/internal/costmodel"
	"rolag/internal/ir"
	"rolag/internal/passes"
)

func build(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := cc.Compile(src, "c")
	if err != nil {
		t.Fatal(err)
	}
	passes.Standard().Run(m)
	return m
}

func TestInstrCostsSane(t *testing.T) {
	mod := ir.NewModule("t")
	callee := mod.NewDecl("ext", ir.Void, ir.I32)
	f := mod.NewFunc("f", ir.Void, &ir.Param{Name: "p", Typ: ir.Ptr(ir.I32)}, &ir.Param{Name: "x", Typ: ir.I32})
	b := f.NewBlock("entry")
	bd := ir.NewBuilder(b)
	p, x := f.Params[0], f.Params[1]
	ld := bd.Load(p)
	add := bd.Add(ld, x)
	mul := bd.Mul(add, x)
	div := bd.Bin(ir.OpSDiv, mul, x)
	cmp := bd.ICmp(ir.PredSLT, div, x)
	sel := bd.Select(cmp, add, mul)
	call := bd.Call(callee, sel)
	st := bd.Store(sel, p)
	phiLike := bd.Cast(ir.OpSExt, sel, ir.I64)
	tr := bd.Cast(ir.OpTrunc, phiLike, ir.I32)
	bd.Ret(nil)
	_, _ = call, st

	m := costmodel.Default()
	if m.Instr(div) <= m.Instr(add) {
		t.Error("division should cost more than addition")
	}
	if m.Instr(call) != 5 {
		t.Errorf("direct call = %d bytes, want 5", m.Instr(call))
	}
	if m.Instr(tr) != 0 {
		t.Error("trunc is free (subregister)")
	}
	if m.Instr(ld) < 3 {
		t.Error("load under 3 bytes is implausible")
	}
	if err := mod.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestGepFoldsIntoAccess(t *testing.T) {
	m := build(t, `int f(int *a, int i) { return a[i]; }`)
	f := m.FindFunc("f")
	model := costmodel.Default()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpGEP {
				if c := model.Instr(in); c != 0 {
					t.Errorf("single-use gep feeding a load should fold (cost %d)", c)
				}
			}
		}
	}
}

func TestBinaryModelDiffersSystematically(t *testing.T) {
	// A function with phis, multiple blocks and a multi-use gep must be
	// costed higher by the measurement model — that gap is what produces
	// the paper's profitability false positives.
	m := build(t, `
int f(int *a, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) {
		a[i] = a[i] + 1;
		s += a[i];
	}
	return s;
}`)
	f := m.FindFunc("f")
	d := costmodel.Default().Func(f)
	bm := costmodel.Binary().Func(f)
	if bm <= d {
		t.Errorf("binary model (%d) should exceed the TTI-style model (%d) on loop code", bm, d)
	}
}

func TestModuleIncludesRodata(t *testing.T) {
	m := build(t, `const long table[8] = {1,2,3,4,5,6,7,8}; int f() { return (int)table[3]; }`)
	model := costmodel.Default()
	withData := model.Module(m)
	// Strip the read-only flag: the 64 bytes of rodata must disappear.
	for _, g := range m.Globals {
		g.ReadOnly = false
	}
	withoutData := model.Module(m)
	if withData-withoutData != 64 {
		t.Errorf("rodata accounting: delta = %d, want 64", withData-withoutData)
	}
}

func TestCostMonotonicInCode(t *testing.T) {
	small := build(t, `void f(int *a) { a[0] = 1; }`)
	big := build(t, `void f(int *a) { a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4; }`)
	model := costmodel.Binary()
	if model.Module(big) <= model.Module(small) {
		t.Error("more stores must cost more bytes")
	}
}

func TestImmediateWidthMatters(t *testing.T) {
	imm8 := build(t, `void f(long *a) { a[0] = 100; }`)
	imm32 := build(t, `void f(long *a) { a[0] = 100000; }`)
	model := costmodel.Default()
	if model.Module(imm32) <= model.Module(imm8) {
		t.Error("a 32-bit immediate store should cost more than an 8-bit one")
	}
}

// TestRodataAgreesWithBackendOnJumpTable pins the .rodata accounting
// against the assembly backend on the roll.cdata case: rolling two
// mismatch-constant store sequences plants an i32 jump table followed
// by an i64 one, so the section layout needs inter-symbol alignment
// padding. The model's rodata term and the encoder's measured section
// size must agree byte for byte.
func TestRodataAgreesWithBackendOnJumpTable(t *testing.T) {
	src := `
void f(int *a, long *b) {
	a[0] = 1009; a[1] = 5021; a[2] = 2003; a[3] = 9049; a[4] = 4001;
	b[0] = 8087; b[1] = 3023; b[2] = 7039; b[3] = 6011; b[4] = 1097;
}`
	opts := rolag.DefaultOptions()
	opts.AlwaysRoll = true
	res, err := rolag.Build(src, rolag.Config{Name: "jt", Opt: rolag.OptRoLAG, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	cdata := 0
	for _, g := range res.Module.Globals {
		if strings.HasPrefix(g.Name, "roll.cdata") && g.ReadOnly {
			cdata++
		}
	}
	if cdata < 2 {
		t.Fatalf("want two roll.cdata jump tables, got %d:\n%s", cdata, res.Module)
	}

	br, err := backend.Compile(res.Module, nil)
	if err != nil {
		t.Fatal(err)
	}
	if br.Code.Rodata == 0 {
		t.Fatal("backend measured no rodata")
	}
	// Isolate the model's rodata term: Module() is the per-function
	// text estimate plus the rodata layout.
	model := costmodel.Binary()
	text := 0
	for _, f := range res.Module.Funcs {
		text += model.Func(f)
	}
	ro := model.Module(res.Module) - text
	if int64(ro) != br.Code.Rodata {
		t.Errorf("rodata: model %d, backend measures %d", ro, br.Code.Rodata)
	}
	// The agreement must come from real alignment padding, not a happy
	// sum: 5 ints (20 bytes) then an 8-aligned long table forces a
	// 4-byte gap, so the section is strictly bigger than the elements.
	raw := 0
	for _, g := range res.Module.Globals {
		raw += g.Elem.Size()
	}
	if br.Code.Rodata <= int64(raw) {
		t.Errorf("no alignment padding: section %d bytes, elements %d", br.Code.Rodata, raw)
	}
}
