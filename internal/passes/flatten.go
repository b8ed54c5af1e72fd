package passes

import (
	"rolag/internal/analysis"
	"rolag/internal/ir"
)

// Flatten collapses the two-level loop nest RoLAG leaves behind when it
// rerolls a partially unrolled loop — an outer loop stepping by F whose
// body is exactly an inner loop of trip count F — into a single loop
// stepping by one. The paper suggests precisely this cleanup ("running a
// loop flattening pass after RoLAG or simply making it loop aware",
// §V.C); with it, RoLAG's output for perfectly rerollable loops matches
// the baseline's.
//
// The match is deliberately strict. Shape:
//
//	outerPre: ...
//	B:    %i   = phi [init, %outerPre], [%ivn, %E]     (+ paired phis)
//	      br %L
//	L:    %k   = phi i64 [0, %B], [%knext, %L]         (+ paired phis)
//	      %t   = trunc %k to T
//	      %idx = add %i, %t          ; the only uses of %i and %k
//	      ...body using %idx...
//	      %knext = add %k, 1
//	      %c  = icmp slt %knext, F
//	      condbr %c, %L, %E
//	E:    %ivn = add %i, F
//	      %c2 = icmp pred %ivn, %bound
//	      condbr %c2, %B, %exit
//
// becomes a single loop over %idx = init..bound stepping 1.
func Flatten(f *ir.Func) bool {
	if f.IsDecl() {
		return false
	}
	changed := false
	for _, l := range analysis.FindLoops(f) {
		if flattenOne(f, l) {
			changed = true
		}
	}
	if changed {
		Simplify(f)
		DCE(f)
	}
	return changed
}

func flattenOne(f *ir.Func, inner *analysis.Loop) bool {
	// Inner loop: 0..F step 1, constant trip count.
	if inner.Step != 1 {
		return false
	}
	if c, ok := ir.IntValue(inner.Init); !ok || c != 0 {
		return false
	}
	trip, ok := inner.TripCount()
	if !ok || trip < 2 {
		return false
	}
	B, L, E := inner.Preheader, inner.Header, inner.Exit

	// E must be exactly {ivn = add iv_out, F; cmp; condbr B, exit}.
	if len(E.Instrs) != 3 {
		return false
	}
	ivn, cmp2, term := E.Instrs[0], E.Instrs[1], E.Instrs[2]
	if ivn.Op != ir.OpAdd || cmp2.Op != ir.OpICmp || term.Op != ir.OpCondBr {
		return false
	}
	var outerExit *ir.Block
	backOnTrue := false
	switch {
	case term.Blocks[0] == B:
		outerExit, backOnTrue = term.Blocks[1], true
	case term.Blocks[1] == B:
		outerExit, backOnTrue = term.Blocks[0], false
	default:
		return false
	}
	if !backOnTrue {
		return false // canonical rotated loops branch back on true
	}
	step, ok := ir.IntValue(ivn.Operand(1))
	if !ok || step != trip {
		return false
	}
	ivOut, ok := ivn.Operand(0).(*ir.Instr)
	if !ok || ivOut.Op != ir.OpPhi || ivOut.Parent != B {
		return false
	}
	if cmp2.Operand(0) != ir.Value(ivn) {
		return false
	}
	bound := cmp2.Operand(1)
	if bv, isInstr := bound.(*ir.Instr); isInstr && (bv.Parent == B || bv.Parent == L || bv.Parent == E) {
		return false // bound must be outer-loop invariant
	}

	// B must contain only phis and the branch to L, with a unique outer
	// predecessor.
	var outerPre *ir.Block
	for _, p := range f.Preds(B) {
		if p == E {
			continue
		}
		if outerPre != nil {
			return false
		}
		outerPre = p
	}
	if outerPre == nil {
		return false
	}
	phisB := B.Phis()
	if len(B.Instrs) != len(phisB)+1 || B.Terminator().Op != ir.OpBr {
		return false
	}
	ivOutInit, ok1 := ivOut.PhiIncoming(outerPre)
	ivOutBack, ok2 := ivOut.PhiIncoming(E)
	if !ok1 || !ok2 || ivOutBack != ir.Value(ivn) {
		return false
	}

	// The only uses of iv_out may be the combiner add (in L, possibly
	// via a cast) and the latch ivn.
	var combiner *ir.Instr
	var ivOutCast *ir.Instr
	for _, u := range ivOut.Users() {
		switch {
		case u == ivn:
		case u.Parent == L && u.Op == ir.OpAdd:
			if combiner != nil {
				return false
			}
			combiner = u
		case u.Parent == L && u.Op.IsCast() && ivOutCast == nil:
			ivOutCast = u
		default:
			return false
		}
	}
	if ivOutCast != nil {
		// iv_out reaches the combiner through one cast.
		cu := ivOutCast.Users()
		if combiner != nil || len(cu) != 1 || cu[0].Op != ir.OpAdd || cu[0].Parent != L {
			return false
		}
		combiner = cu[0]
	}
	if combiner == nil {
		return false
	}

	// The only uses of iv_in: the latch add, the latch cmp, and a single
	// cast chain that ends at the combiner.
	for _, u := range inner.IV.Users() {
		switch {
		case u == inner.Next, u == inner.Cmp:
		case u.Parent == L && u.Op.IsCast():
			cu := u.Users()
			if len(cu) != 1 || cu[0] != combiner {
				return false
			}
		case u == combiner:
		default:
			return false
		}
	}
	for _, u := range inner.Next.Users() {
		if u != inner.Cmp && u != inner.IV {
			return false
		}
	}
	// The combiner's type must match iv_out's (the outer index domain).
	if !combiner.Typ.Equal(ivOut.Typ) || !bound.Type().Equal(ivOut.Typ) {
		return false
	}

	// Pair the remaining B phis with L phis: P_in's B-incoming must be
	// P_out, P_out's E-incoming must be P_in's backedge value, and P_out
	// must have no other users.
	type pair struct{ pout, pin *ir.Instr }
	var pairs []pair
	for _, pout := range phisB {
		if pout == ivOut {
			continue
		}
		vE, ok := pout.PhiIncoming(E)
		if !ok {
			return false
		}
		var pin *ir.Instr
		for _, u := range pout.Users() {
			if u.Op == ir.OpPhi && u.Parent == L {
				if pin != nil {
					return false
				}
				pin = u
			} else {
				return false
			}
		}
		if pin == nil {
			return false
		}
		fromB, ok1 := pin.PhiIncoming(B)
		back, ok2 := pin.PhiIncoming(L)
		if !ok1 || !ok2 || fromB != ir.Value(pout) || back != vE {
			return false
		}
		pairs = append(pairs, pair{pout: pout, pin: pin})
	}
	// Every non-IV phi of L must be paired.
	for _, pin := range L.Phis() {
		if pin == inner.IV {
			continue
		}
		found := false
		for _, pr := range pairs {
			if pr.pin == pin {
				found = true
			}
		}
		if !found {
			return false
		}
	}

	// --- Rewrite ---
	// New induction: idx = phi [ivOutInit, B], [idxNext, L].
	idx := &ir.Instr{Op: ir.OpPhi, Typ: ivOut.Typ, Name: f.UniqueName("flat.idx")}
	L.InsertAt(0, idx)
	ir.AddIncoming(idx, ivOutInit, B)
	f.ReplaceAllUses(combiner, idx)

	// New latch: idxNext = add idx, 1; cmp2' = icmp pred idxNext, bound.
	idxNext := &ir.Instr{
		Op: ir.OpAdd, Typ: ivOut.Typ, Name: f.UniqueName("flat.next"),
		Operands: []ir.Value{idx, ir.ConstInt(ivOut.Typ.(ir.IntType), 1)},
	}
	newCmp := &ir.Instr{
		Op: ir.OpICmp, Typ: ir.I1, Pred: cmp2.Pred, Name: f.UniqueName("flat.cmp"),
		Operands: []ir.Value{idxNext, bound},
	}
	ir.AddIncoming(idx, idxNext, L)
	lterm := L.Terminator()
	ci := lterm.Index()
	L.InsertAt(ci, idxNext)
	L.InsertAt(ci+1, newCmp)
	lterm.SetOperand(0, newCmp)
	// The loop now exits straight to E, whose latch collapses to a
	// branch into the old outer exit.
	lterm.Blocks = []*ir.Block{L, E}

	// Rewire the paired phis into single-loop form.
	for _, pr := range pairs {
		for i, pb := range pr.pin.Blocks {
			if pb == B {
				pr.pin.SetOperand(i, mustIncoming(pr.pout, outerPre))
			}
		}
	}

	// Drop the old machinery, users first so no dangling operands
	// remain: combiner (uses already replaced), then its cast feeders,
	// then the inner latch and induction phi.
	L.Remove(combiner)
	removeCastChainUses(L, combiner)
	if ivOutCast != nil {
		L.Remove(ivOutCast)
	}
	L.Remove(inner.Cmp)
	L.Remove(inner.Next)
	L.Remove(inner.IV)
	E.Remove(ivn)
	E.Remove(cmp2)
	E.Remove(term)
	brExit := &ir.Instr{Op: ir.OpBr, Typ: ir.Void, Blocks: []*ir.Block{outerExit}}
	E.Append(brExit)
	for _, pr := range pairs {
		B.Remove(pr.pout)
	}
	B.Remove(ivOut)
	return true
}

func mustIncoming(phi *ir.Instr, b *ir.Block) ir.Value {
	v, ok := phi.PhiIncoming(b)
	if !ok {
		panic("flatten: missing phi incoming")
	}
	return v
}

// removeCastChainUses removes now-dead casts in L that fed the combiner.
func removeCastChainUses(L *ir.Block, combiner *ir.Instr) {
	for _, op := range combiner.Operands {
		if c, ok := op.(*ir.Instr); ok && c.Parent == L && c.Op.IsCast() {
			// Only remove if dead now.
			if len(c.Users()) == 0 {
				L.Remove(c)
			}
		}
	}
}
