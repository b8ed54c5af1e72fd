// Package passes implements the scalar optimization pipeline that
// canonicalizes frontend output before loop transformations run:
// promotion of allocas to SSA registers, constant folding, dead-code
// elimination and CFG/instruction simplification, sequenced by a small
// pass manager.
package passes

import (
	"slices"

	"rolag/internal/analysis"
	"rolag/internal/ir"
)

// Mem2Reg promotes promotable allocas (scalar, address never escapes,
// only loaded and stored) to SSA values, inserting phi nodes at iterated
// dominance frontiers — the standard SSA construction algorithm. It
// returns true if anything changed.
func Mem2Reg(f *ir.Func) bool {
	if f.IsDecl() {
		return false
	}
	allocas := promotableAllocas(f)
	if len(allocas) == 0 {
		return false
	}
	di := analysis.ComputeDom(f)

	// Insert phis: for each alloca, at the iterated dominance frontier
	// of its defining (storing) blocks.
	phiFor := make(map[*ir.Instr]*ir.Instr) // phi -> alloca
	phiAt := make(map[*ir.Block]map[*ir.Instr]*ir.Instr)
	blockPos := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		blockPos[b] = i
	}
	for _, a := range allocas {
		// A promotable alloca's users are its loads and stores, so its
		// stores name its defining blocks.
		defBlocks := make(map[*ir.Block]bool)
		var work []*ir.Block
		for _, u := range a.Users() {
			if u.Op == ir.OpStore && !defBlocks[u.Parent] {
				defBlocks[u.Parent] = true
				work = append(work, u.Parent)
			}
		}
		// Seed the worklist in block order, not use-list order: phi
		// creation order feeds UniqueName, so the seed order decides the
		// output names.
		slices.SortFunc(work, func(x, y *ir.Block) int { return blockPos[x] - blockPos[y] })
		placed := make(map[*ir.Block]bool)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, df := range di.Frontier[b] {
				if placed[df] {
					continue
				}
				placed[df] = true
				phi := &ir.Instr{
					Op:   ir.OpPhi,
					Typ:  a.Alloc,
					Name: f.UniqueName(a.Name),
				}
				df.InsertAt(0, phi)
				phiFor[phi] = a
				if phiAt[df] == nil {
					phiAt[df] = make(map[*ir.Instr]*ir.Instr)
				}
				phiAt[df][a] = phi
				if !defBlocks[df] {
					defBlocks[df] = true
					work = append(work, df)
				}
			}
		}
	}

	// Rename along the dominator tree.
	stacks := make(map[*ir.Instr][]ir.Value, len(allocas))
	isAlloca := make(map[*ir.Instr]bool, len(allocas))
	for _, a := range allocas {
		isAlloca[a] = true
	}
	cur := func(a *ir.Instr) ir.Value {
		s := stacks[a]
		if len(s) == 0 {
			return &ir.UndefConst{Typ: a.Alloc}
		}
		return s[len(s)-1]
	}

	// Promoted loads and stores, and the allocas, are detached in one
	// sweep at the end: removing them one by one would rescan their
	// blocks and the allocas' use-lists once per instruction.
	dead := make(map[*ir.Instr]bool)
	renamed := make([]bool, len(f.Blocks))
	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		renamed[blockPos[b]] = true
		var pushed []*ir.Instr
		var loads []*ir.Instr // promoted loads of b, in block order
		replace := make(map[ir.Value]ir.Value)
		for _, in := range b.Instrs {
			// Apply pending replacements within this block first.
			for i, op := range in.Operands {
				if r, ok := replace[op]; ok {
					in.SetOperand(i, r)
				}
			}
			switch in.Op {
			case ir.OpPhi:
				if a, ok := phiFor[in]; ok {
					stacks[a] = append(stacks[a], in)
					pushed = append(pushed, a)
				}
			case ir.OpLoad:
				if a, ok := in.Operand(0).(*ir.Instr); ok && isAlloca[a] {
					replace[in] = cur(a)
					loads = append(loads, in)
					dead[in] = true
				}
			case ir.OpStore:
				if a, ok := in.Operand(1).(*ir.Instr); ok && isAlloca[a] {
					stacks[a] = append(stacks[a], in.Operand(0))
					pushed = append(pushed, a)
					dead[in] = true
				}
			}
		}
		// Propagate replacements to the rest of the function (uses
		// dominated by this block get fixed when their block is
		// renamed; uses in this block already handled). Simplest:
		// record replacements globally and apply at the end. Here we
		// apply to all successor phi edges and then recurse.
		for _, s := range b.Succs() {
			for _, phi := range s.Phis() {
				if a, ok := phiFor[phi]; ok {
					ir.AddIncoming(phi, cur(a), b)
				}
			}
		}
		for _, c := range di.Children[b] {
			rename(c)
		}
		// Replace remaining uses of loads we removed (uses in dominated
		// blocks were handled because we pushed values before
		// recursing; uses elsewhere are illegal SSA), in block order so
		// the use-lists do not depend on map order.
		for _, ld := range loads {
			f.ReplaceAllUses(ld, replace[ld])
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			a := pushed[i]
			stacks[a] = stacks[a][:len(stacks[a])-1]
		}
	}
	rename(f.Entry())
	// Blocks the entry does not reach are outside the dominator tree;
	// rename each on its own, from empty stacks (a load before any
	// store reads undef), so none keeps a use of a deleted alloca and
	// the phis they feed get an incoming value for every predecessor.
	for i, b := range f.Blocks {
		if !renamed[i] {
			rename(b)
		}
	}

	for _, a := range allocas {
		dead[a] = true
	}
	f.RemoveIf(func(in *ir.Instr) bool { return dead[in] })
	prunePhis(f, phiFor)
	return true
}

// prunePhis removes phis that are trivially redundant: all incoming
// values identical (or self-references), repeatedly.
func prunePhis(f *ir.Func, inserted map[*ir.Instr]*ir.Instr) {
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, phi := range b.Phis() {
				if _, ours := inserted[phi]; !ours {
					continue
				}
				var uniq ir.Value
				trivial := true
				for _, v := range phi.Operands {
					if v == phi {
						continue
					}
					if uniq == nil {
						uniq = v
					} else if uniq != v {
						trivial = false
						break
					}
				}
				if !trivial || uniq == nil {
					continue
				}
				f.ReplaceAllUses(phi, uniq)
				b.Remove(phi)
				delete(inserted, phi)
				changed = true
			}
		}
	}
}

// promotableAllocas returns the allocas of f that can be promoted: single
// static element of scalar type, used only as the pointer of loads and
// stores.
func promotableAllocas(f *ir.Func) []*ir.Instr {
	var out []*ir.Instr
	for _, in := range f.Entry().Instrs {
		if in.Op != ir.OpAlloca {
			continue
		}
		if c, ok := ir.IntValue(in.Operand(0)); !ok || c != 1 {
			continue
		}
		switch in.Alloc.(type) {
		case ir.IntType, ir.FloatType, ir.PointerType:
		default:
			continue
		}
		ok := true
		for _, u := range in.Users() {
			switch {
			case u.Op == ir.OpLoad && u.Operand(0) == in:
			case u.Op == ir.OpStore && u.Operand(1) == in && u.Operand(0) != in:
			default:
				ok = false
			}
			if !ok {
				break
			}
		}
		if ok {
			out = append(out, in)
		}
	}
	return out
}
