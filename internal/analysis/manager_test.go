package analysis_test

import (
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
