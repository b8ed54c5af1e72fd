package ir

// DomTree is the dominator tree of a function's control-flow graph,
// computed over block indices by the algorithm of Cooper, Harvey and
// Kennedy ("A Simple, Fast Dominance Algorithm", 2001).
//
// The tree hangs off a virtual root whose successors are the entry
// block and every other block without predecessors, so each of those
// is dominated only by itself. Blocks the virtual root cannot reach
// (cycles entered from nowhere) are dominated by every block. These are
// the answers of the maximal fixpoint of the iterative set formulation
// over the same graph.
type DomTree struct {
	blocks []*Block
	index  map[*Block]int32
	// predOff[i]:predOff[i+1] delimits block i's predecessors in
	// predIdx and predBlk: one entry per CFG edge (a condbr with both
	// targets equal contributes two), in block order.
	predOff []int32
	predIdx []int32
	predBlk []*Block
	// idom[i] is block i's immediate dominator: domRoot for the virtual
	// root's successors, domNone for blocks it cannot reach.
	idom []int32
	// pre and post number the tree depth-first: a dominates b iff a's
	// interval [pre, post] encloses b's.
	pre, post []int32
}

const (
	domRoot = -1 // idom of a virtual-root successor
	domNone = -2 // idom of a block the virtual root cannot reach
)

// Dominators computes f's dominator tree. Edges to blocks outside
// f.Blocks are ignored.
func (f *Func) Dominators() *DomTree {
	n := len(f.Blocks)
	// One slab holds every per-block array: a tree is built on every
	// verify, CSE and mem2reg call.
	slab := make([]int32, 9*n+4)
	carve := func(k int) []int32 {
		a := slab[:k:k]
		slab = slab[k:]
		return a
	}
	t := &DomTree{
		blocks:  f.Blocks,
		index:   make(map[*Block]int32, n),
		predOff: carve(n + 1),
		idom:    carve(n),
		pre:     carve(n),
		post:    carve(n),
	}
	po, fill, childOff, child := carve(n), carve(n+1), carve(n+2), carve(n)
	order := carve(n)[:0] // postorder
	type frame struct{ b, next int32 }
	stack := make([]frame, 0, n) // DFS stack, for the CFG and then the tree
	for i, b := range f.Blocks {
		t.index[b] = int32(i)
	}
	// Predecessors, as a compressed row per block.
	edges := 0
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if j, ok := t.index[s]; ok {
				t.predOff[j+1]++
				edges++
			}
		}
	}
	for i := 0; i < n; i++ {
		t.predOff[i+1] += t.predOff[i]
	}
	t.predIdx = make([]int32, edges)
	t.predBlk = make([]*Block, edges)
	copy(fill, t.predOff[:n])
	for i, b := range f.Blocks {
		for _, s := range b.Succs() {
			if j, ok := t.index[s]; ok {
				t.predIdx[fill[j]] = int32(i)
				t.predBlk[fill[j]] = b
				fill[j]++
			}
		}
	}

	// Postorder from the virtual root: po holds each reached block's
	// number, -1 marks a block not reached, -2 one on the DFS stack.
	// idom holds indices; the virtual root is domRoot, and domNone
	// marks "not yet known".
	idom := t.idom
	for i := range po {
		po[i], idom[i] = -1, domNone
	}
	visit := func(r int32) {
		po[r] = -2 // on the stack
		stack = append(stack[:0], frame{r, 0})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			succs := t.blocks[top.b].Succs()
			if int(top.next) < len(succs) {
				s, ok := t.index[succs[top.next]]
				top.next++
				if ok && po[s] == -1 {
					po[s] = -2
					stack = append(stack, frame{s, 0})
				}
				continue
			}
			po[top.b] = int32(len(order))
			order = append(order, top.b)
			stack = stack[:len(stack)-1]
		}
	}
	for i := 0; i < n; i++ {
		if i == 0 || t.predOff[i] == t.predOff[i+1] {
			visit(int32(i))
			idom[i] = domRoot
		}
	}
	rootPO := int32(len(order)) // the virtual root finishes last

	// The fixpoint over reverse postorder.
	poOf := func(b int32) int32 {
		if b == domRoot {
			return rootPO
		}
		return po[b]
	}
	intersect := func(a, b int32) int32 {
		for a != b {
			for poOf(a) < poOf(b) {
				a = idom[a]
			}
			for poOf(b) < poOf(a) {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for k := len(order) - 1; k >= 0; k-- {
			b := order[k]
			if idom[b] == domRoot {
				continue
			}
			nd := int32(domNone)
			for _, p := range t.predIdx[t.predOff[b]:t.predOff[b+1]] {
				if idom[p] == domNone {
					continue // not processed yet, or unreachable
				}
				if nd == domNone {
					nd = p
				} else {
					nd = intersect(p, nd)
				}
			}
			if nd != idom[b] {
				idom[b] = nd
				changed = true
			}
		}
	}

	// Number the tree: children in block order, depth-first from the
	// virtual root, whose row in childOff and fill is n. Unreachable
	// blocks keep pre = post = -1.
	slot := func(d int32) int32 {
		if d == domRoot {
			return int32(n)
		}
		return d
	}
	for i := 0; i < n; i++ {
		if idom[i] != domNone {
			childOff[slot(idom[i])+1]++
		}
	}
	for i := 0; i <= n; i++ {
		childOff[i+1] += childOff[i]
	}
	copy(fill, childOff[:n+1])
	for i := 0; i < n; i++ {
		if d := idom[i]; d != domNone {
			child[fill[slot(d)]] = int32(i)
			fill[slot(d)]++
		}
	}
	for i := range t.pre {
		t.pre[i], t.post[i] = -1, -1
	}
	clock := int32(0)
	for _, r := range child[childOff[n]:childOff[n+1]] {
		t.pre[r] = clock
		clock++
		stack = append(stack[:0], frame{r, childOff[r]})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next < childOff[top.b+1] {
				c := child[top.next]
				top.next++
				t.pre[c] = clock
				clock++
				stack = append(stack, frame{c, childOff[c]})
				continue
			}
			t.post[top.b] = clock
			clock++
			stack = stack[:len(stack)-1]
		}
	}
	return t
}

// IDom returns b's immediate dominator, or nil when b has none: the
// entry, a block without predecessors, or a block the virtual root
// cannot reach.
func (t *DomTree) IDom(b *Block) *Block {
	i, ok := t.index[b]
	if !ok || t.idom[i] < 0 {
		return nil
	}
	return t.blocks[t.idom[i]]
}

// Preds returns b's predecessors within the function, one per CFG edge
// in block order. The slice is shared; callers must not modify it.
func (t *DomTree) Preds(b *Block) []*Block {
	i, ok := t.index[b]
	if !ok {
		return nil
	}
	return t.predBlk[t.predOff[i]:t.predOff[i+1]]
}

// Dominates reports whether a dominates b. Every block dominates
// itself, and every block dominates a block the virtual root cannot
// reach.
func (t *DomTree) Dominates(a, b *Block) bool {
	ia, okA := t.index[a]
	ib, okB := t.index[b]
	if !okA || !okB {
		return false
	}
	if t.pre[ib] < 0 {
		return true
	}
	return t.pre[ia] >= 0 && t.pre[ia] <= t.pre[ib] && t.post[ib] <= t.post[ia]
}
