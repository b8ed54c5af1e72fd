package passes

import (
	"rolag/internal/analysis"
	"rolag/internal/ir"
)

// LICM hoists loop-invariant pure instructions (arithmetic, geps, casts,
// comparisons, selects) out of canonical single-block loops into their
// preheaders. Loads and stores are never moved — that would require
// alias analysis — but address computations, which is what the rerolling
// techniques trip over, are. Returns true if anything moved.
func LICM(f *ir.Func) bool {
	if f.IsDecl() {
		return false
	}
	changed := false
	for _, l := range analysis.FindLoops(f) {
		if hoistLoop(f, l) {
			changed = true
		}
	}
	return changed
}

func hoistLoop(f *ir.Func, l *analysis.Loop) bool {
	b := l.Header
	invariant := func(v ir.Value, hoisted map[*ir.Instr]bool) bool {
		in, ok := v.(*ir.Instr)
		if !ok {
			return true // constants, params, globals
		}
		if in.Parent != b {
			return true
		}
		return hoisted[in]
	}
	pure := func(in *ir.Instr) bool {
		switch {
		case in.Op.IsBinary(), in.Op.IsCast(),
			in.Op == ir.OpGEP, in.Op == ir.OpICmp, in.Op == ir.OpFCmp,
			in.Op == ir.OpSelect:
			return true
		}
		return false
	}
	hoisted := make(map[*ir.Instr]bool)
	changed := false
	for {
		progress := false
		for _, in := range b.Instrs {
			if hoisted[in] || !pure(in) {
				continue
			}
			// Division can trap; hoisting it past the loop guard would
			// execute it on the zero-trip path.
			if in.Op == ir.OpSDiv || in.Op == ir.OpUDiv || in.Op == ir.OpSRem || in.Op == ir.OpURem {
				continue
			}
			ok := true
			for _, op := range in.Operands {
				if !invariant(op, hoisted) {
					ok = false
					break
				}
			}
			if ok {
				hoisted[in] = true
				progress = true
			}
		}
		if !progress {
			break
		}
		changed = true
	}
	if !changed {
		return false
	}
	// Move the hoisted instructions (in their original order) to the end
	// of the preheader, before its terminator.
	pre := l.Preheader
	term := pre.Terminator()
	ti := term.Index()
	for _, in := range b.Instrs {
		if hoisted[in] {
			pre.InsertAt(ti, in)
			ti++
		}
	}
	b.RemoveIf(func(in *ir.Instr) bool { return hoisted[in] })
	return true
}
