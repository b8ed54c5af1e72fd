package rolag

import (
	"rolag/internal/ir"
)

// GenerateLoop rewrites block b according to the alignment graph and
// schedule (§IV.E): b keeps the pre-loop code and becomes the preheader,
// a new single-block loop executes one graph iteration per lane, and a
// new exit block receives the post-loop code, the extracted external
// values and b's original terminator. The constant-table globals
// codegen creates go to f.Parent. burnCodegenNames replays the unique
// names it requests, in order, and must change with it.
func GenerateLoop(f *ir.Func, b *ir.Block, g *Graph, sched *Schedule, opts *Options) {
	lanes := g.Root.Lanes()
	// Which lanes escape the loop is a question about the body before
	// the rewrite detaches the matched instructions.
	escapes := escapingLanes(g, sched)

	// Create the loop and exit blocks right after b.
	loopB := &ir.Block{Name: f.UniqueName("roll.loop")}
	exitB := &ir.Block{Name: f.UniqueName("roll.exit")}
	bi := blockIndex(f, b)
	f.InsertBlock(bi+1, loopB)
	f.InsertBlock(bi+2, exitB)

	// Successor phis that named b as a predecessor now receive control
	// from the exit block (b's terminator moves there). This includes
	// b's own phis when b is a loop body.
	for _, ob := range f.Blocks {
		for _, phi := range ob.Phis() {
			for i, pb := range phi.Blocks {
				if pb == b {
					phi.Blocks[i] = exitB
				}
			}
		}
	}

	// Partition b: phis + PRE stay; POST and the terminator move to the
	// exit block; matched instructions are detached (their code is
	// regenerated inside the loop).
	term := b.Terminator()
	inPre := make(map[*ir.Instr]bool, len(sched.Pre))
	for _, in := range sched.Pre {
		inPre[in] = true
	}
	inPost := make(map[*ir.Instr]bool, len(sched.Post))
	for _, in := range sched.Post {
		inPost[in] = true
	}
	for _, in := range b.Instrs {
		if inPost[in] {
			exitB.Append(in)
		}
	}
	exitB.Append(term)
	b.RemoveIf(func(in *ir.Instr) bool { return in.Op != ir.OpPhi && !inPre[in] })

	pre := ir.NewBuilder(b) // appends mismatch materialization then br
	loop := ir.NewBuilder(loopB)

	// Induction variable.
	iv := loop.Phi(ir.I64, "roll.iv")
	ir.AddIncoming(iv, ir.ConstInt(ir.I64, 0), b)
	cg := &codegen{
		f: f, b: b, loopB: loopB, exitB: exitB,
		pre: pre, loop: loop, iv: iv, lanes: lanes, opts: opts, graph: g,
	}
	for _, n := range sched.Emission {
		cg.gen(n)
	}
	// Patch recurrence phis now that their parents exist.
	for _, p := range cg.recurrencePatches {
		ir.AddIncoming(p.phi, p.node.RefParent.gen, loopB)
	}

	// Extraction of externally used values (§IV.E).
	cg.extractExternalUses(escapes, sched)

	// Latch.
	ivn := loop.Add(iv, ir.ConstInt(ir.I64, 1))
	ir.AddIncoming(iv, ivn, loopB)
	cmp := loop.ICmp(ir.PredSLT, ivn, ir.ConstInt(ir.I64, int64(lanes)))
	loop.CondBr(cmp, loopB, exitB)

	// Enter the loop from the preheader.
	pre.Br(loopB)
}

type recurrencePatch struct {
	phi  *ir.Instr
	node *Node
}

type codegen struct {
	f     *ir.Func
	b     *ir.Block // preheader
	loopB *ir.Block
	exitB *ir.Block
	pre   *ir.Builder
	loop  *ir.Builder
	iv    *ir.Instr
	lanes int
	opts  *Options
	graph *Graph

	recurrencePatches []recurrencePatch
	phiCount          int // phis inserted at the head of loopB (after iv)
}

// gen materializes the in-loop value of node n (stored in n.gen).
func (cg *codegen) gen(n *Node) {
	switch n.Kind {
	case KindIdentical:
		n.gen = n.Vals[0]
	case KindIntSeq:
		n.gen = cg.genIntSeq(n)
	case KindMismatch:
		n.gen = cg.genMismatch(n)
	case KindMatch:
		n.gen = cg.genMatch(n)
	case KindRecurrence:
		phi := cg.newLoopPhi(n.RefParent.Typ, "roll.rec")
		ir.AddIncoming(phi, n.Init, cg.b)
		cg.recurrencePatches = append(cg.recurrencePatches, recurrencePatch{phi: phi, node: n})
		n.gen = phi
	case KindReduction:
		n.gen = cg.genReduction(n)
	case KindJoint:
		// Joint nodes only fix the order of their groups (handled by the
		// emission order); they generate no code.
	}
}

// newLoopPhi inserts a phi at the head of the loop block (phis must be
// grouped before other instructions).
func (cg *codegen) newLoopPhi(t ir.Type, name string) *ir.Instr {
	phi := &ir.Instr{Op: ir.OpPhi, Typ: t, Name: cg.f.UniqueName(name)}
	cg.phiCount++
	cg.loopB.InsertAt(cg.phiCount, phi) // slot 0 holds the induction phi
	if cg.loop.At >= 0 {
		cg.loop.At++
	}
	return phi
}

// genIntSeq lowers S0..Sn,step to S0 + iv*step, cast to the sequence's
// type (§IV.C1).
func (cg *codegen) genIntSeq(n *Node) ir.Value {
	var v ir.Value = cg.iv
	if n.Step != 1 {
		v = cg.loop.Mul(v, ir.ConstInt(ir.I64, n.Step))
	}
	if n.Start != 0 {
		v = cg.loop.Add(v, ir.ConstInt(ir.I64, n.Start))
	}
	if n.SeqTyp.Bits < 64 {
		v = cg.loop.Cast(ir.OpTrunc, v, n.SeqTyp)
	}
	return v
}

// genMismatch lowers a mismatching node: constant lanes become a global
// constant array, anything else a stack array filled in the preheader;
// the loop reads element iv (§IV.E).
func (cg *codegen) genMismatch(n *Node) ir.Value {
	t := n.Vals[0].Type()
	if allConstScalar(n) {
		arr := &ir.ArrayConst{Typ: ir.ArrayOf(len(n.Vals), t)}
		for _, v := range n.Vals {
			arr.Elems = append(arr.Elems, v.(ir.Const))
		}
		glob := cg.f.Parent.NewGlobal("roll.cdata", arr.Typ, arr)
		glob.ReadOnly = true
		p := cg.loop.GEP(glob, ir.ConstInt(ir.I64, 0), cg.iv)
		return cg.loop.Load(p)
	}
	arr := cg.pre.Alloca(ir.ArrayOf(len(n.Vals), t), nil, "roll.vdata")
	for k, v := range n.Vals {
		p := cg.pre.GEP(arr, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, int64(k)))
		cg.pre.Store(v, p)
	}
	p := cg.loop.GEP(arr, ir.ConstInt(ir.I64, 0), cg.iv)
	return cg.loop.Load(p)
}

// genMatch emits the merged instruction for a match node, wiring its
// operands to the children's generated values.
func (cg *codegen) genMatch(n *Node) ir.Value {
	if n.GepCastElem != nil {
		return cg.genGepCast(n)
	}
	ops := make([]ir.Value, len(n.Children))
	for i, c := range n.Children {
		ops[i] = c.gen
	}
	clone := &ir.Instr{
		Op:       n.Op,
		Typ:      n.Typ,
		Pred:     n.Pred,
		Callee:   n.Callee,
		Operands: ops,
	}
	if !ir.IsVoid(n.Typ) {
		clone.Name = cg.f.UniqueName("roll")
	}
	cg.loop.Block = cg.loopB
	insertBuilderInstr(cg.loop, clone)
	return clone
}

// genGepCast emits a matched gep whose lanes index different fields of a
// homogeneous struct: the struct is reinterpreted as an array of its
// field type and indexed flat, exactly the manual rewrite the paper shows
// in Fig. 4b.
func (cg *codegen) genGepCast(n *Node) ir.Value {
	base := n.Children[0].gen
	elemPtr := ir.Ptr(n.GepCastElem)
	var p ir.Value = base
	if !base.Type().Equal(elemPtr) {
		p = cg.loop.Cast(ir.OpBitcast, base, elemPtr)
	}
	idx := n.Children[len(n.Children)-1].gen
	if it, ok := idx.Type().(ir.IntType); ok && it.Bits < 64 {
		idx = cg.loop.Cast(ir.OpSExt, idx, ir.I64)
	}
	if n.GepPrefixElems != 0 {
		idx = cg.loop.Add(idx, ir.ConstInt(ir.I64, n.GepPrefixElems))
	}
	return cg.loop.GEP(p, idx)
}

// genReduction lowers a reduction tree to an accumulator phi plus a
// single binary operation (§IV.C5), or — for the min/max extension — a
// comparison plus a select.
func (cg *codegen) genReduction(n *Node) ir.Value {
	child := n.Children[0]
	acc := cg.newLoopPhi(n.RedRoot.Typ, "roll.acc")
	if n.MinMaxPred != ir.PredInvalid {
		ir.AddIncoming(acc, n.Init, cg.b)
		cmp := &ir.Instr{
			Op:       n.MinMaxCmp,
			Typ:      ir.I1,
			Pred:     n.MinMaxPred,
			Name:     cg.f.UniqueName("roll.mm"),
			Operands: []ir.Value{child.gen, acc},
		}
		insertBuilderInstr(cg.loop, cmp)
		sel := cg.loop.Select(cmp, child.gen, acc)
		ir.AddIncoming(acc, sel, cg.loopB)
		return sel
	}
	if n.Init != nil {
		ir.AddIncoming(acc, n.Init, cg.b)
	} else {
		ir.AddIncoming(acc, n.RedOp.NeutralElement(n.RedRoot.Typ), cg.b)
	}
	red := cg.loop.Bin(n.RedOp, acc, child.gen)
	ir.AddIncoming(acc, red, cg.loopB)
	return red
}

func insertBuilderInstr(bd *ir.Builder, in *ir.Instr) {
	if bd.At < 0 {
		bd.Block.Append(in)
	} else {
		bd.Block.InsertAt(bd.At, in)
		bd.At++
	}
}

// extractExternalUses handles values computed inside the loop that other
// code still needs (§IV.E): uses of only the final lane read the loop's
// last value directly; otherwise the loop stores every lane into a stack
// array and the exit block reloads the needed elements.
func (cg *codegen) extractExternalUses(escapes map[*ir.Instr]bool, sched *Schedule) {
	type replacement struct {
		old *ir.Instr
		new ir.Value
	}
	var reps []replacement
	// Exit-block loads go before the POST instructions, in generation
	// order. Insert immediately (not batched) so name uniqueness checks
	// see them.
	exitPos := 0
	insertExit := func(in *ir.Instr) {
		cg.exitB.InsertAt(exitPos, in)
		exitPos++
	}

	for _, n := range sched.Emission {
		switch n.Kind {
		case KindMatch:
			if ir.IsVoid(n.Typ) {
				continue
			}
			extLanes := make([]int, 0, len(n.Insts))
			for k, in := range n.Insts {
				if escapes[in] {
					extLanes = append(extLanes, k)
				}
			}
			if len(extLanes) == 0 {
				continue
			}
			if len(extLanes) == 1 && extLanes[0] == cg.lanes-1 {
				// Only the final iteration's value escapes: it is the
				// loop's live-out value, directly available in the exit.
				reps = append(reps, replacement{old: n.Insts[cg.lanes-1], new: n.gen})
				continue
			}
			arr := cg.pre.Alloca(ir.ArrayOf(cg.lanes, n.Typ), nil, "roll.out")
			p := cg.loop.GEP(arr, ir.ConstInt(ir.I64, 0), cg.iv)
			cg.loop.Store(n.gen, p)
			for _, k := range extLanes {
				gp := &ir.Instr{
					Op:       ir.OpGEP,
					Typ:      ir.Ptr(n.Typ),
					Name:     cg.f.UniqueName("roll.extp"),
					Operands: []ir.Value{arr, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, int64(k))},
				}
				insertExit(gp)
				ld := &ir.Instr{
					Op:       ir.OpLoad,
					Typ:      n.Typ,
					Name:     cg.f.UniqueName("roll.ext"),
					Operands: []ir.Value{gp},
				}
				insertExit(ld)
				reps = append(reps, replacement{old: n.Insts[k], new: ld})
			}
		case KindReduction:
			reps = append(reps, replacement{old: n.RedRoot, new: n.gen})
		}
	}
	// Rewrite the uses outside the matched set: the matched
	// instructions are detached, so the use-lists hold exactly those.
	for _, r := range reps {
		cg.f.ReplaceAllUses(r.old, r.new)
	}
}

// escapingLanes returns the instructions of value-producing match nodes
// that have a user outside the matched set, which the loop must make
// available after it (§IV.E).
func escapingLanes(g *Graph, sched *Schedule) map[*ir.Instr]bool {
	escapes := make(map[*ir.Instr]bool)
	for _, n := range sched.Emission {
		if n.Kind != KindMatch || ir.IsVoid(n.Typ) {
			continue
		}
		for _, in := range n.Insts {
			if in != nil && usedOutside(in, g) {
				escapes[in] = true
			}
		}
	}
	return escapes
}

// usedOutside reports whether matched instruction in has a user outside
// the matched set.
func usedOutside(in *ir.Instr, g *Graph) bool {
	for _, u := range in.Users() {
		if _, isMatched := g.Matched[u]; !isMatched {
			return true
		}
	}
	return false
}

func blockIndex(f *ir.Func, b *ir.Block) int {
	for i, x := range f.Blocks {
		if x == b {
			return i
		}
	}
	return -1
}
