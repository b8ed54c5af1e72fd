package analysis_test

import (
	"math"
	"testing"

	"rolag/internal/analysis"
	"rolag/internal/ir"
)

func managerTestFunc(t *testing.T) (*ir.Module, *ir.Func) {
	t.Helper()
	m := lower(t, `
int f(int *a, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += a[i];
	return s;
}`)
	return m, m.FindFunc("f")
}

func TestManagerCachesAnalyses(t *testing.T) {
	_, f := managerTestFunc(t)
	am := analysis.NewManager()
	fi := am.Info(f)
	if fi != am.Info(f) {
		t.Fatal("Info returned distinct FuncInfo for the same function")
	}
	// Memoized accessors must return the same map, not a recomputation.
	i1 := fi.Index()
	i1[nil] = -1
	if _, ok := fi.Index()[nil]; !ok {
		t.Error("Index recomputed instead of memoized")
	}
	delete(i1, nil)
	if fi.Dom() != fi.Dom() {
		t.Error("Dom recomputed instead of memoized")
	}
	if fi.Interner() != fi.Interner() {
		t.Error("Interner recomputed instead of memoized")
	}
}

// TestManagerInvalidationContract is the ISSUE 4 contract test: a pass
// that mutates a function and invalidates it must observe fresh
// index analysis afterward — new instructions appear, deleted ones are
// gone.
func TestManagerInvalidationContract(t *testing.T) {
	_, f := managerTestFunc(t)
	am := analysis.NewManager()
	fi := am.Info(f)
	staleIndex := fi.Index()

	// Mutate: insert a new add instruction before the entry block's
	// terminator.
	entry := f.Blocks[0]
	var opnd ir.Value = f.Params[1]
	in := &ir.Instr{Op: ir.OpAdd, Name: f.Name + ".m", Typ: ir.I32,
		Operands: []ir.Value{opnd, opnd}}
	entry.InsertAt(len(entry.Instrs)-1, in)

	if _, ok := staleIndex[in]; ok {
		t.Fatal("stale index already knows the new instruction")
	}

	am.Invalidate(f)
	fresh := am.Info(f)
	if fresh == fi {
		t.Fatal("Invalidate did not drop the FuncInfo")
	}
	if _, ok := fresh.Index()[in]; !ok {
		t.Error("fresh index is missing the appended instruction")
	}
	if got := fresh.Index()[in]; got != len(entry.Instrs)-2 {
		t.Errorf("fresh index of the new instruction = %d, want %d", got, len(entry.Instrs)-2)
	}

	am.InvalidateAll()
	if am.Info(f) == fresh {
		t.Error("InvalidateAll did not drop the FuncInfo")
	}
}

func TestUncachedManagerNeverReuses(t *testing.T) {
	_, f := managerTestFunc(t)
	am := analysis.NewUncachedManager()
	if am.Info(f) == am.Info(f) {
		t.Error("uncached manager reused a FuncInfo")
	}
}

func TestInternerHashConsesConstants(t *testing.T) {
	it := analysis.NewInterner()
	a := ir.ConstInt(ir.I32, 7)
	b := ir.ConstInt(ir.I32, 7)
	c := ir.ConstInt(ir.I64, 7)
	d := ir.ConstInt(ir.I32, 8)
	if a == b {
		t.Fatal("test needs distinct objects")
	}
	if it.ID(a) != it.ID(b) {
		t.Error("structurally equal constants got distinct ids")
	}
	if it.ID(a) == it.ID(c) {
		t.Error("same literal, different type shared an id")
	}
	if it.ID(a) == it.ID(d) {
		t.Error("different literals shared an id")
	}
	// Named values intern by identity.
	p1 := &ir.Param{Name: "x", Typ: ir.I32}
	p2 := &ir.Param{Name: "x", Typ: ir.I32}
	if it.ID(p1) != it.ID(p1) {
		t.Error("id not stable")
	}
	if it.ID(p1) == it.ID(p2) {
		t.Error("distinct params shared an id")
	}
	k1 := it.AppendKey(nil, []ir.Value{a, p1})
	k2 := it.AppendKey(nil, []ir.Value{b, p1})
	k3 := it.AppendKey(nil, []ir.Value{p1, a})
	if string(k1) != string(k2) {
		t.Error("equal value sequences produced distinct keys")
	}
	if string(k1) == string(k3) {
		t.Error("order-swapped sequence produced the same key")
	}
}

// TestInternerKeysMatchSpelling checks that constants share an id
// exactly when their type and spelling agree, the content key the
// interner used to format, and that ids follow first sight.
func TestInternerKeysMatchSpelling(t *testing.T) {
	f32 := ir.FloatType{Bits: 32}
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0xfff8000000000002)
	vals := []ir.Value{
		ir.ConstInt(ir.I32, -1), ir.ConstInt(ir.I32, -1), ir.ConstInt(ir.I8, -1),
		&ir.IntConst{Typ: ir.I8, Val: 255}, ir.ConstInt(ir.I64, 1<<40), ir.ConstBool(true),
		ir.ConstFloat(ir.F64, 0), ir.ConstFloat(ir.F64, math.Copysign(0, -1)),
		ir.ConstFloat(ir.F64, nan1), ir.ConstFloat(ir.F64, nan2), ir.ConstFloat(ir.F64, math.NaN()),
		ir.ConstFloat(ir.F64, math.Inf(1)), ir.ConstFloat(ir.F64, math.Inf(-1)),
		ir.ConstFloat(f32, 0.5), ir.ConstFloat(ir.F64, 0.5), ir.ConstFloat(ir.F64, 0.1), ir.ConstFloat(ir.F64, 0.1+1e-17),
		ir.ConstNull(ir.PointerType{Elem: ir.I32}), ir.ConstNull(ir.PointerType{Elem: ir.I32}),
		&ir.UndefConst{Typ: ir.I32}, &ir.ZeroConst{Typ: ir.I32},
	}
	it := analysis.NewInterner()
	spelled := make(map[string]uint32)
	var next uint32
	for i, v := range vals {
		id := it.ID(v)
		key := v.Type().String() + "\x00" + v.Ident()
		want, seen := spelled[key]
		if !seen {
			want = next
			next++
			spelled[key] = want
		}
		if id != want {
			t.Errorf("vals[%d] %s %s: id %d, want %d", i, v.Type(), v.Ident(), id, want)
		}
	}
}
