package analysis

import "rolag/internal/ir"

// DomInfo holds dominator-tree information for one function.
type DomInfo struct {
	Func *ir.Func
	// IDom maps each block (except the entry) to its immediate
	// dominator.
	IDom map[*ir.Block]*ir.Block
	// Children is the dominator tree: the blocks immediately dominated
	// by each block, in block order.
	Children map[*ir.Block][]*ir.Block
	// Frontier is the dominance frontier of each block.
	Frontier map[*ir.Block][]*ir.Block

	tree *ir.DomTree
}

// ComputeDom computes dominators, the dominator tree and dominance
// frontiers for f from the function's ir.DomTree.
func ComputeDom(f *ir.Func) *DomInfo {
	t := f.Dominators()
	di := &DomInfo{
		Func:     f,
		IDom:     make(map[*ir.Block]*ir.Block),
		Children: make(map[*ir.Block][]*ir.Block),
		Frontier: make(map[*ir.Block][]*ir.Block),
		tree:     t,
	}
	for _, b := range f.Blocks {
		if idom := t.IDom(b); idom != nil {
			di.IDom[b] = idom
			di.Children[idom] = append(di.Children[idom], b)
		}
	}
	// Dominance frontiers: walk up from each predecessor of a join
	// point to the join's immediate dominator.
	entry := f.Entry()
	for _, b := range f.Blocks {
		preds := t.Preds(b)
		if len(preds) < 2 {
			continue
		}
		for _, p := range preds {
			runner := p
			for runner != nil && runner != di.IDom[b] {
				di.Frontier[runner] = appendUnique(di.Frontier[runner], b)
				if runner == entry {
					break
				}
				runner = di.IDom[runner]
			}
		}
	}
	return di
}

func appendUnique(s []*ir.Block, b *ir.Block) []*ir.Block {
	for _, x := range s {
		if x == b {
			return s
		}
	}
	return append(s, b)
}
