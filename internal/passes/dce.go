package passes

import "rolag/internal/ir"

// DCE removes instructions whose results are unused and that have no
// side effects. A worklist seeded with the unused instructions drives
// the unique liveness fixpoint: each death lowers its operands' live
// user counts, read from the use-lists, and the dead are detached in one
// sweep at the end. Returns true if anything was removed.
func DCE(f *ir.Func) bool {
	if f.IsDecl() {
		return false
	}
	removable := func(in *ir.Instr) bool {
		return !in.IsTerminator() && !in.MayWriteMemory()
	}

	var work []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if removable(in) && len(in.Users()) == 0 {
				work = append(work, in)
			}
		}
	}
	if len(work) == 0 {
		return false
	}
	// left holds the live user count of each instruction that lost a
	// user; the others still have len(Users()).
	left := make(map[*ir.Instr]int)
	removed := make(map[*ir.Instr]bool)
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		if removed[in] {
			continue
		}
		removed[in] = true
		ops := in.Operands
	release:
		for i, op := range ops {
			d, ok := op.(*ir.Instr)
			if !ok {
				continue
			}
			for _, prev := range ops[:i] {
				if prev == op {
					continue release
				}
			}
			n, seen := left[d]
			if !seen {
				n = len(d.Users())
			}
			left[d] = n - 1
			if n == 1 && removable(d) && !removed[d] {
				work = append(work, d)
			}
		}
	}
	f.RemoveIf(func(in *ir.Instr) bool { return removed[in] })
	return true
}
