// Package reroll reimplements the loop-rerolling strategy of LLVM's
// LoopReroll pass as described in §II of the paper: for each single-block
// loop it looks for a basic induction variable with step F, finds the F-1
// "root" increments iv+1 .. iv+F-1, collects the instruction set of each
// unrolled iteration by following definition-use chains, structurally
// matches corresponding instructions across iterations, and — when every
// instruction in the loop is accounted for — deletes the replicas and
// resets the induction step to 1.
//
// Like the original, the technique is deliberately rigid: it reverses
// partial unrolls of step-1 loops (including simple reductions) and
// nothing else; that rigidity is precisely what the paper's evaluation
// exposes.
package reroll

import (
	"fmt"
	"sort"

	"rolag/internal/analysis"
	"rolag/internal/ir"
	"rolag/internal/obs"
)

// RerollFunc attempts to reroll every single-block loop in f, returning
// the number of loops rerolled.
func RerollFunc(f *ir.Func) int {
	return RerollFuncObs(f, nil)
}

// RerollFuncObs is RerollFunc with optimization remarks: every loop
// with an unrolled-looking induction step (>= 2) gets a "rerolled" or
// "reroll-reject" remark naming the header block and the rejection
// detail; step-1 loops are skipped silently, since there is nothing to
// reroll and remarking every ordinary loop would be noise. A nil rec
// collects nothing.
func RerollFuncObs(f *ir.Func, rec *obs.Recorder) int {
	n := 0
	for _, l := range analysis.FindLoops(f) {
		step := l.Step
		err := RerollLoop(f, l)
		if err == nil {
			n++
			if rec.On() {
				rec.Add(obs.Remark{
					Pass: "reroll", Name: "rerolled", Status: obs.StatusPassed,
					Func: f.Name, Block: l.Header.Name,
					Instr: "%" + l.IV.Name,
					Lanes: int(step),
				})
			}
			continue
		}
		if step >= 2 && rec.On() {
			rec.Add(obs.Remark{
				Pass: "reroll", Name: "reroll-reject", Status: obs.StatusMissed,
				Func: f.Name, Block: l.Header.Name,
				Instr:  "%" + l.IV.Name,
				Reason: "no-reroll",
				Detail: err.Error(),
				Lanes:  int(step),
			})
		}
	}
	return n
}

// RerollLoop rerolls one loop or returns an error explaining why it
// cannot.
func RerollLoop(f *ir.Func, l *analysis.Loop) error {
	factor := l.Step
	if factor < 2 {
		return fmt.Errorf("reroll: induction step %d leaves nothing to reroll", factor)
	}
	b := l.Header
	index := make(map[*ir.Instr]int, len(b.Instrs))
	for i, in := range b.Instrs {
		index[in] = i
	}

	// Find the roots: add iv, m for m = 1..factor-1.
	roots := make([]*ir.Instr, factor) // roots[0] is conceptually the IV itself
	isRoot := make(map[*ir.Instr]bool)
	for _, in := range b.Instrs {
		if in.Op != ir.OpAdd || in == l.Next {
			continue
		}
		var m int64
		if in.Operand(0) == l.IV {
			c, ok := ir.IntValue(in.Operand(1))
			if !ok {
				continue
			}
			m = c
		} else if in.Operand(1) == l.IV {
			c, ok := ir.IntValue(in.Operand(0))
			if !ok {
				continue
			}
			m = c
		} else {
			continue
		}
		if m >= 1 && m < factor {
			if roots[m] != nil {
				return fmt.Errorf("reroll: duplicate root for offset %d", m)
			}
			roots[m] = in
			isRoot[in] = true
		}
	}
	for m := int64(1); m < factor; m++ {
		if roots[m] == nil {
			return fmt.Errorf("reroll: missing root iv+%d", m)
		}
	}

	// Latch instructions are excluded from iteration sets.
	isLatch := map[*ir.Instr]bool{l.Next: true, l.Cmp: true, l.CondBr: true}

	// Detect simple reductions: a non-IV phi whose backedge value is the
	// end of a chain of same-opcode binary operations of length factor.
	type reduction struct {
		phi   *ir.Instr
		chain []*ir.Instr
	}
	var reductions []reduction
	inChain := make(map[*ir.Instr]bool)
	for _, phi := range b.Phis() {
		if phi == l.IV {
			continue
		}
		back, ok := phi.PhiIncoming(b)
		if !ok {
			continue
		}
		last, ok := back.(*ir.Instr)
		if !ok || !last.Op.IsBinary() || last.Parent != b {
			return fmt.Errorf("reroll: unsupported loop-carried phi %%%s", phi.Name)
		}
		// Walk the chain backwards from last to the phi.
		chain := []*ir.Instr{last}
		cur := last
		for {
			var prev *ir.Instr
			done := false
			for _, op := range cur.Operands {
				if op == phi {
					done = true
					break
				}
				if pi, ok := op.(*ir.Instr); ok && pi.Op == cur.Op && pi.Parent == b && usedOnlyBy(pi, cur) {
					prev = pi
				}
			}
			if done {
				break
			}
			if prev == nil {
				return fmt.Errorf("reroll: phi %%%s is not a simple reduction", phi.Name)
			}
			chain = append(chain, prev)
			cur = prev
		}
		// chain is last..first; reverse to iteration order.
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		if int64(len(chain)) != factor {
			return fmt.Errorf("reroll: reduction chain length %d != factor %d", len(chain), factor)
		}
		reductions = append(reductions, reduction{phi: phi, chain: chain})
		for _, c := range chain {
			inChain[c] = true
		}
	}

	// Collect the instruction set of each iteration by following
	// definition-use chains from its root.
	collect := func(seed *ir.Instr) []*ir.Instr {
		var set []*ir.Instr
		seen := make(map[*ir.Instr]bool)
		work := []*ir.Instr{seed}
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			for _, u := range v.Users() {
				if u.Parent != b || seen[u] || isLatch[u] || isRoot[u] || inChain[u] || u.Op == ir.OpPhi {
					continue
				}
				seen[u] = true
				set = append(set, u)
				work = append(work, u)
			}
		}
		sort.Slice(set, func(i, j int) bool { return index[set[i]] < index[set[j]] })
		return set
	}
	sets := make([][]*ir.Instr, factor)
	sets[0] = collect(l.IV)
	for m := int64(1); m < factor; m++ {
		sets[m] = collect(roots[m])
	}
	// Iteration 0's traversal from the IV also discovers every other
	// iteration's instructions when they use the IV indirectly; the sets
	// must be disjoint, so remove from set 0 anything claimed by a later
	// iteration.
	claimed := make(map[*ir.Instr]int64)
	for m := int64(1); m < factor; m++ {
		for _, in := range sets[m] {
			if _, dup := claimed[in]; dup {
				return fmt.Errorf("reroll: instruction %%%s belongs to two iterations", in.Name)
			}
			claimed[in] = m
		}
	}
	var base []*ir.Instr
	for _, in := range sets[0] {
		if _, taken := claimed[in]; !taken {
			base = append(base, in)
		}
	}
	sets[0] = base

	// Structural matching: corresponding instructions must have the same
	// opcode and types, and operands must be loop-invariant equals or
	// correspondingly equivalent instructions.
	for m := int64(1); m < factor; m++ {
		if len(sets[m]) != len(sets[0]) {
			return fmt.Errorf("reroll: iteration %d has %d instructions, iteration 0 has %d", m, len(sets[m]), len(sets[0]))
		}
	}
	for m := int64(1); m < factor; m++ {
		equiv := map[ir.Value]ir.Value{l.IV: roots[m]}
		for _, r := range reductions {
			if m == 1 {
				equiv[r.phi] = r.chain[0]
			} else {
				equiv[r.chain[m-2]] = r.chain[m-1]
			}
		}
		for j := range sets[0] {
			a, c := sets[0][j], sets[m][j]
			if a.Op != c.Op || !a.Typ.Equal(c.Typ) || a.Pred != c.Pred || a.Callee != c.Callee {
				return fmt.Errorf("reroll: mismatched instructions %%%s vs %%%s", a.Name, c.Name)
			}
			if len(a.Operands) != len(c.Operands) {
				return fmt.Errorf("reroll: operand count mismatch")
			}
			for oi := range a.Operands {
				oa, oc := a.Operands[oi], c.Operands[oi]
				if ir.SameValue(oa, oc) {
					continue
				}
				if e, ok := equiv[oa]; ok && e == oc {
					continue
				}
				return fmt.Errorf("reroll: operand %d of %%%s does not correspond", oi, c.Name)
			}
			equiv[a] = c
		}
		// The reduction chain element of iteration m must mirror
		// iteration 0's: same opcode (checked at chain build) and its
		// non-accumulator operand must correspond.
		for _, r := range reductions {
			a, c := r.chain[0], r.chain[m]
			av := otherOperand(a, r.phi)
			var prev ir.Value = r.phi
			if m > 0 {
				prev = r.chain[m-1]
			}
			cv := otherOperand(c, prev)
			if av == nil || cv == nil {
				return fmt.Errorf("reroll: reduction chain shape mismatch")
			}
			if !ir.SameValue(av, cv) {
				if e, ok := equiv[av]; !ok || e != cv {
					return fmt.Errorf("reroll: reduction operand does not correspond")
				}
			}
		}
	}

	// Coverage: every instruction in the loop must be a phi, a root, a
	// latch instruction, a chain element or a member of some set.
	member := make(map[*ir.Instr]bool)
	for _, set := range sets {
		for _, in := range set {
			member[in] = true
		}
	}
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi || isRoot[in] || isLatch[in] || inChain[in] || member[in] {
			continue
		}
		return fmt.Errorf("reroll: instruction %%%s is not part of any unrolled iteration", in.Name)
	}

	// All constraints hold: perform the rerolling.
	// 1. External uses of the last iteration's values now observe
	//    iteration 0's values.
	lastEquiv := make(map[ir.Value]ir.Value)
	for j := range sets[0] {
		lastEquiv[sets[factor-1][j]] = sets[0][j]
	}
	for _, r := range reductions {
		lastEquiv[r.chain[factor-1]] = r.chain[0]
	}
	for _, ob := range f.Blocks {
		for _, in := range ob.Instrs {
			if in.Parent == b {
				continue
			}
			for oi, op := range in.Operands {
				if nv, ok := lastEquiv[op]; ok {
					in.SetOperand(oi, nv)
				}
			}
		}
	}
	// 2. Reduction phis take iteration 0's chain element on the
	//    backedge; the cmp tests iv+1.
	for _, r := range reductions {
		for i, pb := range r.phi.Blocks {
			if pb == b {
				r.phi.SetOperand(i, r.chain[0])
			}
		}
	}
	// 3. Reset the induction step to 1.
	for oi, op := range l.Next.Operands {
		if c, ok := op.(*ir.IntConst); ok && c.Val == factor {
			l.Next.SetOperand(oi, ir.ConstInt(c.Typ, 1))
		}
	}
	// 4. Delete iterations 1..factor-1, the chains beyond element 0 and
	//    the roots.
	dead := make(map[*ir.Instr]bool)
	for m := int64(1); m < factor; m++ {
		for _, in := range sets[m] {
			dead[in] = true
		}
		dead[roots[m]] = true
	}
	for _, r := range reductions {
		for _, in := range r.chain[1:] {
			dead[in] = true
		}
	}
	b.RemoveIf(func(in *ir.Instr) bool { return dead[in] })
	return nil
}

func usedOnlyBy(v *ir.Instr, u *ir.Instr) bool {
	us := v.Users()
	return len(us) == 1 && us[0] == u
}

func otherOperand(in *ir.Instr, not ir.Value) ir.Value {
	if in.NumOperands() != 2 {
		return nil
	}
	if in.Operand(0) == not {
		return in.Operand(1)
	}
	if in.Operand(1) == not {
		return in.Operand(0)
	}
	return nil
}
