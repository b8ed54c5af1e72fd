package ir

import (
	"slices"
	"strings"
	"testing"
)

// buildSumFunc creates: i32 @sum(i32 %n) { loop 0..n-1 accumulating }.
func buildSumFunc(m *Module) *Func {
	f := m.NewFunc("sum", I32, &Param{Name: "n", Typ: I32})
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")

	be := NewBuilder(entry)
	c0 := be.ICmp(PredSLT, ConstInt(I32, 0), f.Params[0])
	be.CondBr(c0, loop, exit)

	bl := NewBuilder(loop)
	iv := bl.Phi(I32, "i")
	acc := bl.Phi(I32, "s")
	AddIncoming(iv, ConstInt(I32, 0), entry)
	AddIncoming(acc, ConstInt(I32, 0), entry)
	nacc := bl.Add(acc, iv)
	niv := bl.Add(iv, ConstInt(I32, 1))
	AddIncoming(iv, niv, loop)
	AddIncoming(acc, nacc, loop)
	cmp := bl.ICmp(PredSLT, niv, f.Params[0])
	bl.CondBr(cmp, loop, exit)

	bx := NewBuilder(exit)
	out := bx.Phi(I32, "out")
	AddIncoming(out, ConstInt(I32, 0), entry)
	AddIncoming(out, nacc, loop)
	bx.Ret(out)
	return f
}

func TestBuilderAndVerify(t *testing.T) {
	m := NewModule("t")
	f := buildSumFunc(m)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, m)
	}
	if f.NumInstrs() != 10 {
		t.Errorf("NumInstrs = %d, want 10", f.NumInstrs())
	}
	text := m.String()
	for _, want := range []string{"func i32 @sum(i32 %n)", "phi i32 [0, %entry]", "condbr i1"} {
		if !strings.Contains(text, want) {
			t.Errorf("printed module missing %q:\n%s", want, text)
		}
	}
}

func TestVerifyCatchesUnterminatedBlock(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", Void)
	f.NewBlock("entry") // no terminator
	if err := m.Verify(); err == nil {
		t.Error("expected error for unterminated block")
	}
}

func TestVerifyCatchesTypeErrors(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", Void, &Param{Name: "p", Typ: Ptr(I32)})
	b := f.NewBlock("entry")
	// store i64 into i32*.
	bad := &Instr{Op: OpStore, Typ: Void, Operands: []Value{ConstInt(I64, 1), f.Params[0]}}
	b.Append(bad)
	NewBuilder(b).Ret(nil)
	if err := m.Verify(); err == nil {
		t.Error("expected store type mismatch error")
	}
}

func TestVerifyCatchesDominanceViolation(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", I32)
	entry := f.NewBlock("entry")
	other := f.NewBlock("other")
	// %x defined in other, used in entry: entry does not dominate...
	// Actually use-before-def within block order:
	bo := NewBuilder(other)
	x := bo.Add(ConstInt(I32, 1), ConstInt(I32, 2))
	bo.Ret(x)
	be := NewBuilder(entry)
	be.Ret(x) // use of %x not dominated (other does not dominate entry)
	if err := m.Verify(); err == nil {
		t.Error("expected dominance violation")
	}
}

func TestVerifyCatchesDuplicateNames(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", Void)
	b := f.NewBlock("entry")
	i1 := &Instr{Op: OpAdd, Typ: I32, Name: "x", Operands: []Value{ConstInt(I32, 1), ConstInt(I32, 2)}}
	i2 := &Instr{Op: OpAdd, Typ: I32, Name: "x", Operands: []Value{ConstInt(I32, 1), ConstInt(I32, 2)}}
	b.Append(i1)
	b.Append(i2)
	NewBuilder(b).Ret(nil)
	if err := m.Verify(); err == nil {
		t.Error("expected duplicate-name error")
	}
}

func TestVerifyCatchesPhiEdgeMismatch(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", Void)
	entry := f.NewBlock("entry")
	next := f.NewBlock("next")
	NewBuilder(entry).Br(next)
	bn := NewBuilder(next)
	phi := bn.Phi(I32, "p") // no incoming edges but one predecessor
	_ = phi
	bn.Ret(nil)
	if err := m.Verify(); err == nil {
		t.Error("expected phi edge mismatch")
	}
}

func TestUniqueNames(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", Void, &Param{Name: "x", Typ: I32})
	a := f.UniqueName("x")
	if a == "x" {
		t.Error("UniqueName must avoid the parameter name")
	}
	b1 := f.NewBlock("bb")
	b2 := f.NewBlock("bb")
	if b1.Name == b2.Name {
		t.Error("blocks must get unique names")
	}
}

func TestUsersAndReplaceAllUses(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", I32, &Param{Name: "x", Typ: I32})
	b := f.NewBlock("entry")
	bd := NewBuilder(b)
	a := bd.Add(f.Params[0], ConstInt(I32, 1))
	c := bd.Mul(a, a)
	bd.Ret(c)
	if us := a.Users(); len(us) != 1 || us[0] != c {
		t.Errorf("users of %%%s = %v", a.Name, us)
	}
	n := f.ReplaceAllUses(a, ConstInt(I32, 7))
	if n != 2 {
		t.Errorf("ReplaceAllUses replaced %d operands, want 2", n)
	}
	if c.Operand(0).Ident() != "7" || c.Operand(1).Ident() != "7" {
		t.Error("operands not replaced")
	}
	if len(a.Users()) != 0 {
		t.Errorf("users of %%%s after ReplaceAllUses = %v", a.Name, a.Users())
	}
}

func TestCloneFuncIndependence(t *testing.T) {
	m := NewModule("t")
	f := buildSumFunc(m)
	clone := CloneFunc(f, m, "sum2")
	if err := m.Verify(); err != nil {
		t.Fatalf("verify after clone: %v", err)
	}
	// Mutating the clone must not affect the original.
	clone.Blocks[1].Instrs[2].SetOperand(1, ConstInt(I32, 99))
	orig := f.Blocks[1].Instrs[2].Operand(1)
	if c, ok := orig.(*IntConst); ok && c.Val == 99 {
		t.Error("clone shares operand slices with the original")
	}
	if f.String() == "" || clone.String() == "" {
		t.Error("printing failed")
	}
}

// bodyObjects lists f's blocks and instructions in body order.
func bodyObjects(f *Func) (blocks []*Block, instrs []*Instr) {
	for _, b := range f.Blocks {
		blocks = append(blocks, b)
		instrs = append(instrs, b.Instrs...)
	}
	return blocks, instrs
}

// useLists copies the use-list of every instruction of f, in body order.
func useLists(f *Func) [][]*Instr {
	var lists [][]*Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			lists = append(lists, append([]*Instr(nil), in.Users()...))
		}
	}
	return lists
}

// checkRestored fails unless f prints as want, holds exactly the given
// block and instruction objects, in order, and gives every instruction
// the users listed in users.
func checkRestored(t *testing.T, f *Func, want string, blocks []*Block, instrs []*Instr, users [][]*Instr) {
	t.Helper()
	if err := f.Verify(); err != nil {
		t.Fatalf("verify after restore: %v", err)
	}
	if got := f.String(); got != want {
		t.Fatalf("restored body differs:\n%s\nvs\n%s", got, want)
	}
	gotB, gotI := bodyObjects(f)
	if len(gotB) != len(blocks) || len(gotI) != len(instrs) {
		t.Fatalf("restored %d blocks/%d instrs, want %d/%d", len(gotB), len(gotI), len(blocks), len(instrs))
	}
	for i := range blocks {
		if gotB[i] != blocks[i] || gotB[i].Parent != f {
			t.Fatalf("block %d is not the original object", i)
		}
	}
	for i := range instrs {
		if gotI[i] != instrs[i] {
			t.Fatalf("instruction %d is not the original object", i)
		}
		if got := instrs[i].Users(); !slices.Equal(got, users[i]) {
			t.Fatalf("users of %s = %v after restore, want %v", instrs[i], got, users[i])
		}
	}
}

// wreck edits f through every IR editing path and returns a name
// generated while doing so.
func wreck(f *Func) string {
	entry, loop, exit := f.Blocks[0], f.Blocks[1], f.Blocks[2]
	iv, acc := loop.Instrs[0], loop.Instrs[1]
	nacc := loop.Instrs[2]
	// Operand edits.
	nacc.SetOperand(1, ConstInt(I32, 7))
	f.ReplaceAllUses(iv, acc)
	// Phi edge edits: retarget one edge, add another.
	iv.Blocks[0] = exit
	AddIncoming(acc, ConstInt(I32, 3), exit)
	// Instruction list edits, with new names.
	name := f.UniqueName("i")
	extra := &Instr{Op: OpAdd, Typ: I32, Name: name, Operands: []Value{acc, acc}}
	loop.InsertAt(2, extra)
	loop.Remove(nacc)
	entry.Append(&Instr{Op: OpRet, Typ: Void})
	// Block list edits.
	nb := f.NewBlock("loop")
	NewBuilder(nb).Ret(ConstInt(I32, 1))
	f.RemoveBlock(exit)
	return name
}

func TestCheckpointRestoresIdentity(t *testing.T) {
	m := NewModule("t")
	f := buildSumFunc(m)
	want := f.String()
	blocks, instrs := bodyObjects(f)
	users := useLists(f)
	var ck Checkpoint
	ck.Take(f)
	name := wreck(f)
	if f.String() == want {
		t.Fatal("wreck left the body unchanged")
	}
	if slices.EqualFunc(useLists(f), users, slices.Equal) {
		t.Fatal("wreck left the use-lists unchanged")
	}
	ck.Restore()
	checkRestored(t, f, want, blocks, instrs, users)
	// The name counter is rewound: the same request yields the same name.
	if again := f.UniqueName("i"); again != name {
		t.Errorf("name after Restore = %q, want the rewound %q", again, name)
	}
}

func TestCheckpointRestoreKeepNames(t *testing.T) {
	m := NewModule("t")
	f := buildSumFunc(m)
	want := f.String()
	blocks, instrs := bodyObjects(f)
	users := useLists(f)
	var ck Checkpoint
	ck.Take(f)
	name := wreck(f)
	ck.RestoreKeepNames()
	checkRestored(t, f, want, blocks, instrs, users)
	if again := f.UniqueName("i"); again == name {
		t.Errorf("RestoreKeepNames rewound the name counter: %q again", again)
	}
}

// TestCheckpointBufferOwnership restores one checkpoint, then takes and
// mutates under the same Checkpoint again: the slabs the first Restore
// handed to the body must not be reused by the second Take.
func TestCheckpointBufferOwnership(t *testing.T) {
	m := NewModule("t")
	f := buildSumFunc(m)
	want := f.String()
	blocks, instrs := bodyObjects(f)
	users := useLists(f)
	var ck Checkpoint
	ck.Take(f)
	wreck(f)
	ck.Restore()
	ck.Take(f)
	wreck(f)
	ck.Restore()
	checkRestored(t, f, want, blocks, instrs, users)

	// A Take after a Restore must not alias the restored body's slices:
	// editing the body in place leaves the new snapshot intact.
	ck.Take(f)
	f.Blocks[1].Instrs[2].SetOperand(0, ConstInt(I32, 9))
	f.Blocks[1].Instrs[0] = f.Blocks[1].Instrs[1]
	f.Blocks[0] = f.Blocks[2]
	ck.Restore()
	checkRestored(t, f, want, blocks, instrs, users)
}

func TestCheckpointTakeAfterCommitReusesBuffers(t *testing.T) {
	m := NewModule("t")
	f := buildSumFunc(m)
	var ck Checkpoint
	ck.Take(f)
	if n := testing.AllocsPerRun(100, func() { ck.Take(f) }); n != 0 {
		t.Errorf("Take after a commit allocated %v times, want 0", n)
	}
}

func TestCloneModule(t *testing.T) {
	m := NewModule("t")
	g := m.NewGlobal("data", ArrayOf(4, I32), &ZeroConst{Typ: ArrayOf(4, I32)})
	f := m.NewFunc("f", I32)
	b := f.NewBlock("entry")
	bd := NewBuilder(b)
	p := bd.GEP(g, ConstInt(I64, 0), ConstInt(I64, 1))
	v := bd.Load(p)
	bd.Ret(v)

	nm := CloneModule(m)
	if err := nm.Verify(); err != nil {
		t.Fatalf("verify clone: %v", err)
	}
	// The clone must reference its own global, not the original's.
	ng := nm.FindGlobal("data")
	if ng == nil || ng == g {
		t.Fatal("global not cloned")
	}
	ninstr := nm.FindFunc("f").Blocks[0].Instrs[0]
	if ninstr.Operand(0) != Value(ng) {
		t.Error("cloned gep still references the original module's global")
	}
}

func TestPredsSuccsTerminator(t *testing.T) {
	m := NewModule("t")
	f := buildSumFunc(m)
	entry, loop, exit := f.Blocks[0], f.Blocks[1], f.Blocks[2]
	if got := entry.Succs(); len(got) != 2 {
		t.Errorf("entry succs = %d", len(got))
	}
	preds := f.Preds(loop)
	if len(preds) != 2 {
		t.Errorf("loop preds = %d, want 2 (entry + itself)", len(preds))
	}
	if exit.Terminator().Op != OpRet {
		t.Error("exit terminator should be ret")
	}
	if len(loop.Phis()) != 2 {
		t.Errorf("loop phis = %d, want 2", len(loop.Phis()))
	}
}

func TestBlockInsertRemove(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", Void)
	b := f.NewBlock("entry")
	bd := NewBuilder(b)
	x := bd.Add(ConstInt(I32, 1), ConstInt(I32, 2))
	bd.Ret(nil)
	mid := &Instr{Op: OpMul, Typ: I32, Name: f.UniqueName("m"), Operands: []Value{x, x}}
	b.InsertAt(1, mid)
	if b.Instrs[1] != mid || mid.Index() != 1 {
		t.Error("InsertAt misplaced instruction")
	}
	b.Remove(mid)
	if len(b.Instrs) != 2 || mid.Parent != nil {
		t.Error("Remove failed")
	}
}

func TestGEPTypeRules(t *testing.T) {
	st := &StructType{TypeName: "S", Fields: []Type{I32, ArrayOf(4, F32)}}
	// gep S* p, 0, 1, 2 → f32*
	typ, err := GEPType(Ptr(st), []Value{ConstInt(I64, 0), ConstInt(I32, 1), ConstInt(I64, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if !typ.Equal(Ptr(F32)) {
		t.Errorf("gep type = %s, want f32*", typ)
	}
	// Struct index must be constant.
	m := NewModule("t")
	f := m.NewFunc("f", Void, &Param{Name: "i", Typ: I32})
	if _, err := GEPType(Ptr(st), []Value{ConstInt(I64, 0), f.Params[0]}); err == nil {
		t.Error("expected error for variable struct index")
	}
	// Out-of-range field.
	if _, err := GEPType(Ptr(st), []Value{ConstInt(I64, 0), ConstInt(I32, 5)}); err == nil {
		t.Error("expected error for out-of-range field")
	}
	// gep into scalar beyond the first index.
	if _, err := GEPType(Ptr(I32), []Value{ConstInt(I64, 0), ConstInt(I64, 0)}); err == nil {
		t.Error("expected error for gep into scalar")
	}
	// Non-pointer base.
	if _, err := GEPType(I32, []Value{ConstInt(I64, 0)}); err == nil {
		t.Error("expected error for non-pointer base")
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpAdd.IsCommutative() || OpSub.IsCommutative() {
		t.Error("commutativity misclassified")
	}
	if !OpAdd.IsAssociative() || OpFAdd.IsAssociative() {
		t.Error("associativity misclassified (fadd needs fast-math)")
	}
	if !OpBr.IsTerminator() || OpAdd.IsTerminator() {
		t.Error("terminators misclassified")
	}
	if !OpZExt.IsCast() || OpAdd.IsCast() {
		t.Error("casts misclassified")
	}
	// Neutral elements.
	if c, _ := IntValue(OpAdd.NeutralElement(I32)); c != 0 {
		t.Error("add neutral is 0")
	}
	if c, _ := IntValue(OpMul.NeutralElement(I32)); c != 1 {
		t.Error("mul neutral is 1")
	}
	if c, _ := IntValue(OpAnd.NeutralElement(I32)); c != -1 {
		t.Error("and neutral is all-ones")
	}
	if OpICmp.NeutralElement(I32) != nil {
		t.Error("icmp has no neutral element")
	}
	if fc, ok := OpFMul.NeutralElement(F64).(*FloatConst); !ok || fc.Val != 1 {
		t.Error("fmul neutral is 1.0")
	}
}

func TestMemoryEffectClassification(t *testing.T) {
	m := NewModule("t")
	decl := m.NewDecl("ext", Void, I32)
	pure := m.NewDecl("pure_fn", I32, I32)
	pure.ReadOnly = true
	f := m.NewFunc("f", Void, &Param{Name: "p", Typ: Ptr(I32)})
	b := f.NewBlock("entry")
	bd := NewBuilder(b)
	ld := bd.Load(f.Params[0])
	st := bd.Store(ld, f.Params[0])
	call := bd.Call(decl, ld)
	pcall := bd.Call(pure, ld)
	add := bd.Add(ld, ld)
	bd.Ret(nil)

	if !ld.MayReadMemory() || ld.MayWriteMemory() {
		t.Error("load classification")
	}
	if !st.MayWriteMemory() || st.MayReadMemory() {
		t.Error("store classification")
	}
	if !call.MayWriteMemory() {
		t.Error("opaque call may write")
	}
	if pcall.MayWriteMemory() {
		t.Error("readonly call must not write")
	}
	if add.HasMemoryEffect() {
		t.Error("add has no memory effect")
	}
}

func TestUseListsCountDistinctUsers(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", I32, &Param{Name: "x", Typ: I32})
	bd := NewBuilder(f.NewBlock("entry"))
	a := bd.Add(f.Params[0], ConstInt(I32, 1))
	c := bd.Mul(a, a)
	bd.Ret(c)
	if us := a.Users(); len(us) != 1 || us[0] != c {
		t.Fatalf("users of %%%s = %v, want [%s] once", a.Name, us, c)
	}
	c.SetOperand(0, f.Params[0])
	if us := a.Users(); len(us) != 1 || us[0] != c {
		t.Fatalf("users after rewriting one of two slots = %v, want [%s]", us, c)
	}
	c.SetOperand(1, f.Params[0])
	if len(a.Users()) != 0 {
		t.Fatalf("users after rewriting both slots = %v, want none", a.Users())
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDetachedInstrIsNotAUser(t *testing.T) {
	m := NewModule("t")
	f := buildSumFunc(m)
	loop := f.Blocks[1]
	acc := loop.Instrs[1] // %s, used by %t (nacc) and its own backedge
	before := len(acc.Users())
	loose := &Instr{Op: OpAdd, Typ: I32, Name: "loose", Operands: []Value{acc, acc}}
	if slices.Contains(acc.Users(), loose) {
		t.Fatal("an instruction outside the body is a user")
	}
	loop.InsertAt(2, loose)
	if len(acc.Users()) != before+1 || !slices.Contains(acc.Users(), loose) {
		t.Fatalf("inserted instruction is not a user: %v", acc.Users())
	}
	loop.Remove(loose)
	if len(acc.Users()) != before || slices.Contains(acc.Users(), loose) {
		t.Fatalf("removed instruction is still a user: %v", acc.Users())
	}
	// Removing a block detaches its instructions: the exit phi stops
	// being a user of the loop's accumulator update.
	nacc, out := loop.Instrs[2], f.Blocks[2].Instrs[0]
	if !slices.Contains(nacc.Users(), out) {
		t.Fatalf("%s does not list %s before the removal", nacc, out)
	}
	f.RemoveBlock(f.Blocks[2])
	if slices.Contains(nacc.Users(), out) {
		t.Errorf("%s still lists %s from a removed block", nacc, out)
	}
}

func TestVerifyCatchesStaleUseLists(t *testing.T) {
	corrupt := map[string]func(f *Func){
		"missing user": func(f *Func) {
			in := f.Blocks[1].Instrs[2] // %t = add %s, %i
			in.users = nil
		},
		"duplicate user": func(f *Func) {
			in := f.Blocks[1].Instrs[0]
			in.users = append(in.users, in.users[0])
		},
		"non-user": func(f *Func) {
			in := f.Blocks[1].Instrs[0]
			in.users = append(in.users, f.Blocks[2].Instrs[1])
		},
		"raw operand write": func(f *Func) {
			f.Blocks[1].Instrs[2].Operands[0] = ConstInt(I32, 5)
		},
	}
	for name, wreck := range corrupt {
		t.Run(name, func(t *testing.T) {
			f := buildSumFunc(NewModule("t"))
			if err := f.Verify(); err != nil {
				t.Fatal(err)
			}
			wreck(f)
			err := f.Verify()
			if err == nil || !strings.Contains(err.Error(), "use-list") {
				t.Fatalf("Verify = %v, want a use-list error", err)
			}
		})
	}
}

func TestNameIndexFollowsTheBody(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", I32, &Param{Name: "x", Typ: I32})
	b := f.NewBlock("entry")
	bd := NewBuilder(b)
	a := bd.Add(f.Params[0], ConstInt(I32, 1)) // named t
	bd.Ret(a)
	if got := f.UniqueName("x"); got == "x" {
		t.Error("a parameter's name was handed out")
	}
	// A returned name is taken only once its owner is attached.
	name := f.UniqueName("v")
	if again := f.UniqueName("v"); again != name {
		t.Errorf("UniqueName(v) = %q then %q: a name nobody owns was taken", name, again)
	}
	in := &Instr{Op: OpAdd, Typ: I32, Name: name, Operands: []Value{a, a}}
	b.InsertAt(1, in)
	if again := f.UniqueName("v"); again == name {
		t.Errorf("UniqueName(v) = %q while an attached instruction owns it", again)
	}
	// A name freed by Remove is free again.
	b.Remove(in)
	if again := f.UniqueName("v"); again != name {
		t.Errorf("UniqueName(v) = %q after Remove, want the freed %q", again, name)
	}
	// A name freed by a checkpoint restore is free again.
	var ck Checkpoint
	ck.Take(f)
	b.InsertAt(1, in)
	ck.Restore()
	if in.Parent != nil {
		t.Error("an instruction added after Take is still attached after Restore")
	}
	if again := f.UniqueName("v"); again != name {
		t.Errorf("UniqueName(v) = %q after Restore, want the freed %q", again, name)
	}
	// A removed block's name is free again.
	extra := f.NewBlock("bb")
	f.RemoveBlock(extra)
	if got := f.UniqueName("bb"); got != "bb" {
		t.Errorf("UniqueName(bb) = %q after RemoveBlock, want bb", got)
	}
}

// TestNameReplayMatchesUniqueName: replaying requests and departures
// burns the name counter exactly as performing them on the body and
// undoing the edit with RestoreKeepNames does.
func TestNameReplayMatchesUniqueName(t *testing.T) {
	build := func() (*Func, *Block, []*Instr) {
		m := NewModule("t")
		f := m.NewFunc("f", I32, &Param{Name: "x", Typ: I32})
		b := f.NewBlock("entry")
		bd := NewBuilder(b)
		s := bd.Add(f.Params[0], ConstInt(I32, 1)) // t
		t1 := bd.Add(s, s)
		bd.named("t3", &Instr{Op: OpAdd, Typ: I32, Operands: []Value{s, s}})
		t9 := bd.named("t9", &Instr{Op: OpAdd, Typ: I32, Operands: []Value{s, s}})
		v := bd.named("v", &Instr{Op: OpMul, Typ: I32, Operands: []Value{s, s}})
		bd.Ret(s)
		return f, b, []*Instr{t1, t9, v}
	}
	// "t" skips the taken t3. Then t1, t9 and v leave: t1 can never be
	// handed out again, while t9 and v are free to be.
	bases := []string{"t", "t", "v", "v", "x", "blk", "", "t", "t", "t", "blk"}
	const dropAfter = 1

	f, b, gone := build()
	var ck Checkpoint
	ck.Take(f)
	for i, base := range bases {
		name := f.UniqueName(base)
		b.InsertAt(0, &Instr{Op: OpAdd, Typ: I32, Name: name, Operands: []Value{f.Params[0], f.Params[0]}})
		if i == dropAfter {
			for _, in := range gone {
				b.Remove(in)
			}
		}
	}
	ck.RestoreKeepNames()

	g, _, ggone := build()
	r := g.ReplayNames()
	for i, base := range bases {
		r.Request(base)
		if i == dropAfter {
			for _, in := range ggone {
				r.Drop(in.Name)
			}
		}
	}
	r.Burn()
	for _, base := range []string{"t", "v", "x"} {
		if got, want := g.UniqueName(base), f.UniqueName(base); got != want {
			t.Errorf("UniqueName(%q) after the replay %q, after the performed edit %q", base, got, want)
		}
	}
	if got := g.String(); got != f.String() {
		t.Errorf("replay changed the body:\n%s\nwant\n%s", got, f)
	}
}
