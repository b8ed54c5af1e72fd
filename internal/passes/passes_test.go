package passes_test

import (
	"strings"
	"testing"
	"testing/quick"

	"rolag/internal/cc"
	"rolag/internal/interp"
	"rolag/internal/ir"
	"rolag/internal/irparse"
	"rolag/internal/passes"
	"rolag/internal/workloads/angha"
)

func lower(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := cc.Compile(src, "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("pre verify: %v", err)
	}
	return m
}

func TestMem2RegPromotesScalars(t *testing.T) {
	m := lower(t, `
int f(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += i;
	return s;
}`)
	f := m.FindFunc("f")
	if !passes.Mem2Reg(f) {
		t.Fatal("Mem2Reg reported no change")
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, f)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca {
				t.Errorf("alloca %%%s survived promotion", in.Name)
			}
		}
	}
	// The loop must carry phis now.
	hasPhi := false
	for _, b := range f.Blocks {
		if len(b.Phis()) > 0 {
			hasPhi = true
		}
	}
	if !hasPhi {
		t.Error("no phis inserted")
	}
}

func TestMem2RegSkipsEscapingAlloca(t *testing.T) {
	m := lower(t, `
extern void leak(int *p);
int f() {
	int x = 1;
	leak(&x);
	return x;
}`)
	f := m.FindFunc("f")
	passes.Mem2Reg(f)
	found := false
	for _, in := range f.Entry().Instrs {
		if in.Op == ir.OpAlloca {
			found = true
		}
	}
	if !found {
		t.Error("escaping alloca must not be promoted")
	}
}

func TestMem2RegDiamond(t *testing.T) {
	m := lower(t, `
int f(int a) {
	int x;
	if (a > 0) x = 10; else x = 20;
	return x;
}`)
	f := m.FindFunc("f")
	passes.Mem2Reg(f)
	if err := f.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, f)
	}
	in, _ := interp.New(m)
	if v, _ := in.Call("f", interp.IntVal(1)); v.I != 10 {
		t.Errorf("f(1) = %d", v.I)
	}
	if v, _ := in.Call("f", interp.IntVal(-1)); v.I != 20 {
		t.Errorf("f(-1) = %d", v.I)
	}
}

// TestCanonicalizeUnreachableCycle canonicalizes a function whose promotable
// alloca is stored to in a cycle no block enters (u1 <-> u2) that also
// feeds the join. The dominator tree leaves both cycle blocks without
// an immediate dominator; with the two as each other's immediate
// dominator, mem2reg's frontier walk from the join's predecessors
// never ended.
func TestCanonicalizeUnreachableCycle(t *testing.T) {
	m, err := irparse.ParseModule(`func i32 @f(i1 %c, i32 %x) {
entry:
  %p = alloca i32, i64 1
  store i32 %x, i32* %p
  br %j
u1:
  store i32 1, i32* %p
  condbr i1 %c, %u2, %j
u2:
  condbr i1 %c, %u1, %j
j:
  %r = load i32, i32* %p
  ret i32 %r
}
`)
	if err != nil {
		t.Fatal(err)
	}
	passes.Standard().Run(m)
	f := m.FindFunc("f")
	if err := f.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, f)
	}
	in, _ := interp.New(m)
	if v, _ := in.Call("f", interp.IntVal(1), interp.IntVal(7)); v.I != 7 {
		t.Errorf("f(1, 7) = %d\n%s", v.I, f)
	}
}

func TestFoldIntBinaryMatchesGo(t *testing.T) {
	type opcase struct {
		op ir.Op
		f  func(a, b int32) int64
	}
	cases := []opcase{
		{ir.OpAdd, func(a, b int32) int64 { return int64(a + b) }},
		{ir.OpSub, func(a, b int32) int64 { return int64(a - b) }},
		{ir.OpMul, func(a, b int32) int64 { return int64(a * b) }},
		{ir.OpAnd, func(a, b int32) int64 { return int64(a & b) }},
		{ir.OpOr, func(a, b int32) int64 { return int64(a | b) }},
		{ir.OpXor, func(a, b int32) int64 { return int64(a ^ b) }},
	}
	for _, c := range cases {
		c := c
		prop := func(a, b int32) bool {
			got, ok := passes.FoldIntBinary(c.op, int64(a), int64(b), 32)
			return ok && got == c.f(a, b)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%s: %v", c.op, err)
		}
	}
	// Division semantics and the zero guard.
	if _, ok := passes.FoldIntBinary(ir.OpSDiv, 5, 0, 32); ok {
		t.Error("division by zero must not fold")
	}
	if v, ok := passes.FoldIntBinary(ir.OpSDiv, -7, 2, 32); !ok || v != -3 {
		t.Errorf("sdiv(-7,2) = %d (truncating division)", v)
	}
	if v, ok := passes.FoldIntBinary(ir.OpSRem, -7, 2, 32); !ok || v != -1 {
		t.Errorf("srem(-7,2) = %d", v)
	}
	if v, ok := passes.FoldIntBinary(ir.OpUDiv, -1, 2, 32); !ok || v != 0x7FFFFFFF {
		t.Errorf("udiv(0xFFFFFFFF,2) = %x", v)
	}
	if v, ok := passes.FoldIntBinary(ir.OpLShr, -1, 1, 32); !ok || v != 0x7FFFFFFF {
		t.Errorf("lshr i32 -1, 1 = %x", v)
	}
	if v, ok := passes.FoldIntBinary(ir.OpAShr, -8, 1, 32); !ok || v != -4 {
		t.Errorf("ashr -8, 1 = %d", v)
	}
}

func TestFoldICmpPredicates(t *testing.T) {
	f := func(a, b int64) bool {
		return passes.FoldICmp(ir.PredSLT, a, b) == (a < b) &&
			passes.FoldICmp(ir.PredULT, a, b) == (uint64(a) < uint64(b)) &&
			passes.FoldICmp(ir.PredEQ, a, b) == (a == b) &&
			passes.FoldICmp(ir.PredSGE, a, b) == (a >= b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstFoldCollapsesChains(t *testing.T) {
	m := lower(t, `int f() { return (3 + 4) * (10 - 2) / 2; }`)
	f := m.FindFunc("f")
	passes.Mem2Reg(f)
	passes.ConstFold(f)
	passes.DCE(f)
	// Expect just "ret 28".
	if n := f.NumInstrs(); n != 1 {
		t.Errorf("after folding, %d instructions remain:\n%s", n, f)
	}
	ret := f.Entry().Terminator()
	if v, ok := ir.IntValue(ret.Operand(0)); !ok || v != 28 {
		t.Errorf("folded to %s, want 28", ret.Operand(0).Ident())
	}
}

func TestSimplifyIdentities(t *testing.T) {
	m := lower(t, `
int f(int x) {
	int a = x + 0;
	int b = a * 1;
	int c = b - 0;
	int d = c / 1;
	int e = d | 0;
	return e ^ 0;
}`)
	f := m.FindFunc("f")
	passes.Standard().RunFunc(f)
	// Everything should cancel: ret %x.
	if n := f.NumInstrs(); n != 1 {
		t.Errorf("identities not simplified, %d instrs:\n%s", n, f)
	}
}

func TestSimplifyBranchFold(t *testing.T) {
	m := lower(t, `
int f() {
	if (1 > 2) return 111;
	return 222;
}`)
	f := m.FindFunc("f")
	passes.Standard().RunFunc(f)
	if len(f.Blocks) != 1 {
		t.Errorf("constant branch not folded, %d blocks remain:\n%s", len(f.Blocks), f)
	}
	in, _ := interp.New(m)
	if v, _ := in.Call("f"); v.I != 222 {
		t.Errorf("f() = %d", v.I)
	}
}

func TestSimplifyReassociation(t *testing.T) {
	// add(add(x,2),3) -> add(x,5); sub(x, 4) -> add(x, -4).
	m := lower(t, `int f(int x) { return x + 2 + 3; }
int g(int x) { return x - 4 - 6; }`)
	passes.Standard().Run(m)
	text := m.String()
	if !strings.Contains(text, ", 5") {
		t.Errorf("add chain not reassociated:\n%s", text)
	}
	if !strings.Contains(text, ", -10") {
		t.Errorf("sub chain not canonicalized:\n%s", text)
	}
	in, _ := interp.New(m)
	if v, _ := in.Call("g", interp.IntVal(100)); v.I != 90 {
		t.Errorf("g(100) = %d", v.I)
	}
}

func TestCSEUnifiesAddressing(t *testing.T) {
	m := lower(t, `
int f(int *a, int i) {
	return a[i] * a[i] + a[i];
}`)
	f := m.FindFunc("f")
	passes.Standard().RunFunc(f)
	geps := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpGEP {
				geps++
			}
		}
	}
	if geps != 1 {
		t.Errorf("CSE left %d geps, want 1:\n%s", geps, f)
	}
	// Loads are not CSE'd (no memory dependence tracking): 3 remain.
}

func TestCSERespectsDominance(t *testing.T) {
	// The same expression in two sibling branches must NOT be unified
	// (neither dominates the other).
	m := lower(t, `
int f(int a, int b) {
	int r;
	if (a > 0) r = a * b; else r = a * b + 1;
	return r;
}`)
	f := m.FindFunc("f")
	passes.Standard().RunFunc(f)
	if err := f.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, f)
	}
	in, _ := interp.New(m)
	if v, _ := in.Call("f", interp.IntVal(2), interp.IntVal(3)); v.I != 6 {
		t.Errorf("f(2,3) = %d", v.I)
	}
	if v, _ := in.Call("f", interp.IntVal(-2), interp.IntVal(3)); v.I != -5 {
		t.Errorf("f(-2,3) = %d", v.I)
	}
}

func TestLICMHoistsInvariantAddress(t *testing.T) {
	m := lower(t, `
int g[16];
void f(int n) {
	for (int i = 0; i < n; i++)
		g[0] = g[0] + i;
}`)
	passes.Standard().Run(m)
	f := m.FindFunc("f")
	// The gep for g[0] must have been hoisted out of the loop block.
	for _, b := range f.Blocks {
		isLoop := false
		for _, s := range b.Succs() {
			if s == b {
				isLoop = true
			}
		}
		if !isLoop {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpGEP {
				t.Errorf("invariant gep %%%s left inside the loop:\n%s", in.Name, f)
			}
		}
	}
}

func TestLICMKeepsDivisionInLoop(t *testing.T) {
	// A division by a loop-invariant value must not be hoisted past the
	// guard (it could trap on the zero-trip path).
	m := lower(t, `
int f(int n, int d) {
	int s = 0;
	for (int i = 0; i < n; i++) s += 100 / d;
	return s;
}`)
	passes.Standard().Run(m)
	in, _ := interp.New(m)
	// n = 0 with d = 0 must not fault.
	v, err := in.Call("f", interp.IntVal(0), interp.IntVal(0))
	if err != nil {
		t.Fatalf("zero-trip loop trapped: %v", err)
	}
	if v.I != 0 {
		t.Errorf("f(0,0) = %d", v.I)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	m := lower(t, `
extern void out(int x);
int f(int a) {
	int unused = a * 99;
	out(a);
	return a;
}`)
	f := m.FindFunc("f")
	passes.Standard().RunFunc(f)
	calls := 0
	muls := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				calls++
			}
			if in.Op == ir.OpMul {
				muls++
			}
		}
	}
	if calls != 1 {
		t.Error("DCE removed a call with side effects")
	}
	if muls != 0 {
		t.Error("DCE kept a dead multiplication")
	}
}

// TestPipelinePreservesBehaviour is the pipeline's property test: for a
// seeded corpus, the optimized module must behave exactly like the
// unoptimized lowering.
func TestPipelinePreservesBehaviour(t *testing.T) {
	funcs := angha.Generate(150, 99)
	h := &interp.Harness{}
	for _, fn := range funcs {
		raw, err := cc.Compile(fn.Src, fn.Name)
		if err != nil {
			t.Fatalf("%s: %v", fn.Name, err)
		}
		opt, err := cc.Compile(fn.Src, fn.Name)
		if err != nil {
			t.Fatal(err)
		}
		passes.Standard().Run(opt)
		if err := opt.Verify(); err != nil {
			t.Fatalf("%s: verify: %v", fn.Name, err)
		}
		for _, f := range opt.Funcs {
			if f.IsDecl() {
				continue
			}
			a, err := h.Run(raw, f.Name, 5)
			if err != nil {
				t.Fatalf("%s/%s raw: %v", fn.Name, f.Name, err)
			}
			b, err := h.Run(opt, f.Name, 5)
			if err != nil {
				t.Fatalf("%s/%s opt: %v", fn.Name, f.Name, err)
			}
			if err := interp.Equivalent(a, b); err != nil {
				t.Errorf("%s/%s (%s): pipeline changed behaviour: %v", fn.Name, f.Name, fn.Family, err)
			}
		}
	}
}

func TestPipelineIdempotent(t *testing.T) {
	// Running the pipeline twice must converge: the second run performs
	// no structural change.
	src := `
int f(int *a, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += a[i] * 2 + 0;
	return s;
}`
	m := lower(t, src)
	passes.Standard().Run(m)
	first := m.String()
	passes.Standard().Run(m)
	second := m.String()
	if first != second {
		t.Errorf("pipeline not idempotent:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestMem2RegAloneUnreachableBlocks: mem2reg on its own maps valid IR
// to valid IR when a promoted alloca is stored to in blocks the entry
// does not reach (TestCanonicalizeUnreachableCycle's input), instead of
// leaving those stores to a deleted alloca for simplify to drop.
func TestMem2RegAloneUnreachableBlocks(t *testing.T) {
	m, err := irparse.ParseModule(`func i32 @f(i1 %c, i32 %x) {
entry:
  %p = alloca i32, i64 1
  store i32 %x, i32* %p
  br %j
u1:
  store i32 1, i32* %p
  %v = load i32, i32* %p
  condbr i1 %c, %u2, %j
u2:
  %w = load i32, i32* %p
  condbr i1 %c, %u1, %j
j:
  %r = load i32, i32* %p
  ret i32 %r
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FindFunc("f")
	if !passes.Mem2Reg(f) {
		t.Fatal("mem2reg promoted nothing")
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("verify after mem2reg alone: %v\n%s", err, f)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca || in.Op == ir.OpLoad || in.Op == ir.OpStore {
				t.Errorf("%s survived promotion:\n%s", in, f)
			}
		}
	}
	in, _ := interp.New(m)
	if v, _ := in.Call("f", interp.IntVal(1), interp.IntVal(7)); v.I != 7 {
		t.Errorf("f(1, 7) = %d\n%s", v.I, f)
	}
}
