package passes_test

import (
	"testing"

	"rolag/internal/interp"
	"rolag/internal/ir"
	"rolag/internal/passes"
)

func runIfConvert(t *testing.T, src string) *ir.Module {
	t.Helper()
	m := lower(t, src)
	passes.Standard().Run(m)
	for _, f := range m.Funcs {
		passes.IfConvert(f)
		passes.Simplify(f)
		passes.DCE(f)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, m)
	}
	return m
}

func countBlocksAndSelects(f *ir.Func) (blocks, selects int) {
	blocks = len(f.Blocks)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpSelect {
				selects++
			}
		}
	}
	return
}

func TestIfConvertTriangle(t *testing.T) {
	m := runIfConvert(t, `
int f(int a, int m) {
	if (a > m) m = a;
	return m;
}`)
	f := m.FindFunc("f")
	blocks, selects := countBlocksAndSelects(f)
	if blocks != 1 || selects != 1 {
		t.Errorf("blocks=%d selects=%d, want 1/1:\n%s", blocks, selects, f)
	}
	in, _ := interp.New(m)
	if v, _ := in.Call("f", interp.IntVal(5), interp.IntVal(3)); v.I != 5 {
		t.Errorf("max(5,3) = %d", v.I)
	}
	if v, _ := in.Call("f", interp.IntVal(2), interp.IntVal(9)); v.I != 9 {
		t.Errorf("max(2,9) = %d", v.I)
	}
}

func TestIfConvertDiamond(t *testing.T) {
	m := runIfConvert(t, `
int f(int a, int x, int y) {
	int r;
	if (a > 0) r = x * 2; else r = y * 3;
	return r;
}`)
	f := m.FindFunc("f")
	blocks, selects := countBlocksAndSelects(f)
	if blocks != 1 || selects != 1 {
		t.Errorf("blocks=%d selects=%d, want 1/1:\n%s", blocks, selects, f)
	}
	in, _ := interp.New(m)
	if v, _ := in.Call("f", interp.IntVal(1), interp.IntVal(10), interp.IntVal(10)); v.I != 20 {
		t.Errorf("then arm = %d", v.I)
	}
	if v, _ := in.Call("f", interp.IntVal(-1), interp.IntVal(10), interp.IntVal(10)); v.I != 30 {
		t.Errorf("else arm = %d", v.I)
	}
}

func TestIfConvertRefusesStores(t *testing.T) {
	m := runIfConvert(t, `
void f(int *a, int i) {
	if (a[i] > 0) a[i] = 0;
}`)
	f := m.FindFunc("f")
	if len(f.Blocks) == 1 {
		t.Errorf("a store must not be speculated:\n%s", f)
	}
}

func TestIfConvertRefusesDivision(t *testing.T) {
	m := runIfConvert(t, `
int f(int a, int d) {
	int r = 0;
	if (d != 0) r = a / d;
	return r;
}`)
	f := m.FindFunc("f")
	if len(f.Blocks) == 1 {
		t.Errorf("division must not be speculated past its guard:\n%s", f)
	}
	in, _ := interp.New(m)
	if _, err := in.Call("f", interp.IntVal(5), interp.IntVal(0)); err != nil {
		t.Errorf("guarded division trapped: %v", err)
	}
}

func TestIfConvertMakesLoopSingleBlock(t *testing.T) {
	// The s314 max-reduction shape: after if-conversion the loop body is
	// one block, which the rolling techniques require.
	m := runIfConvert(t, `
float f(float *a) {
	float m = a[0];
	for (int i = 0; i < 64; i++) {
		if (a[i] > m) m = a[i];
	}
	return m;
}`)
	f := m.FindFunc("f")
	selfLoop := 0
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if s == b {
				selfLoop++
			}
		}
	}
	if selfLoop != 1 {
		t.Errorf("expected a single-block loop after if-conversion:\n%s", f)
	}
	in, _ := interp.New(m)
	base, aerr := in.Alloc(256, 4)
	if aerr != nil {
		t.Fatal(aerr)
	}
	for i := int64(0); i < 64; i++ {
		val := float64((i*37)%19) - 9
		if err := in.StoreTyped(base+i*4, ir.F32, interp.FloatVal(val)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := in.Call("f", interp.IntVal(base))
	if err != nil {
		t.Fatal(err)
	}
	if v.F != 9 {
		t.Errorf("max = %v, want 9", v.F)
	}
}

// TestIfConvertReportsCSE: IfConvert runs CSE before looking for
// shapes, so a function with a duplicate gep and no conditional is
// changed, and IfConvert must say so (the pipeline drops the function's
// cached analyses on that report).
func TestIfConvertReportsCSE(t *testing.T) {
	m := ir.NewModule("m")
	f := m.NewFunc("f", ir.Void, &ir.Param{Name: "p", Typ: ir.Ptr(ir.I32)}, &ir.Param{Name: "v", Typ: ir.I32})
	bd := ir.NewBuilder(f.NewBlock("entry"))
	p, v := f.Params[0], f.Params[1]
	bd.Store(v, bd.GEP(p, ir.ConstInt(ir.I64, 1)))
	bd.Store(v, bd.GEP(p, ir.ConstInt(ir.I64, 1)))
	bd.Ret(nil)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if !passes.IfConvert(f) {
		t.Errorf("IfConvert reported no change after CSE merged the geps:\n%s", f)
	}
	geps := 0
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == ir.OpGEP {
			geps++
		}
	}
	if geps != 1 {
		t.Errorf("%d geps after IfConvert, want 1:\n%s", geps, f)
	}
	if passes.IfConvert(f) {
		t.Errorf("IfConvert reported a change on a function with nothing left to do:\n%s", f)
	}
}
