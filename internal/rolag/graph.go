package rolag

import (
	"bytes"
	"fmt"
	"strings"

	"rolag/internal/analysis"
	"rolag/internal/ir"
)

// Node is one node of the alignment graph. A node groups one value per
// lane (= loop iteration). Virtual lanes (possible in match nodes built
// through the neutral-element identities) have a nil entry in Insts.
type Node struct {
	Kind NodeKind
	// Vals holds the lane values. For match nodes built through neutral
	// identities some entries may be nil (the lane's value is
	// represented by the node's children alone).
	Vals []ir.Value
	// Insts holds the lane instructions of match nodes (nil entries for
	// virtual lanes).
	Insts []*ir.Instr
	// Children are the operand nodes of a match node (one per operand
	// position), the leaf-group node of a reduction, or empty.
	Children []*Node

	// Match-node instruction template fields.
	Op     ir.Op
	Typ    ir.Type
	Pred   ir.Pred
	Callee *ir.Func

	// IntSeq fields: lane k has value Start + k*Step.
	Start, Step int64
	SeqTyp      ir.IntType

	// Recurrence fields: lane 0 reads Init; lane k reads RefParent's
	// lane k-1 value.
	Init      ir.Value
	RefParent *Node

	// Reduction fields.
	RedOp       ir.Op
	RedRoot     *ir.Instr
	RedInternal []*ir.Instr
	// Min/max reduction fields (extension): the per-link comparison.
	MinMaxPred ir.Pred
	MinMaxCmp  ir.Op

	// Joint: the seed-group subgraphs in loop-body order.
	Groups []*Node

	// Gep-over-struct rewrite (the paper's Fig. 4b "treat the struct as
	// an array" trick): when a matched gep indexes different fields of a
	// homogeneous struct per lane, the rolled gep is emitted as
	// bitcast(base, GepCastElem*) indexed by GepPrefixElems + lastIndex.
	GepCastElem    ir.Type
	GepPrefixElems int64

	// gen is the value generated for this node inside the rolled loop
	// (set by codegen).
	gen ir.Value
	// prevLane0 links the match nodes sharing a lane-0 instruction,
	// newest first (graphBuilder.byLane0).
	prevLane0 *Node
}

// Lanes returns the number of lanes (loop iterations) of the graph
// containing n.
func (n *Node) Lanes() int {
	if n.Kind == KindJoint {
		return n.Groups[0].Lanes()
	}
	if n.Kind == KindReduction {
		return n.Children[0].Lanes()
	}
	return len(n.Vals)
}

// Graph is a complete alignment graph for one seed group (or joint seed
// groups) of a basic block. A graph built during a roll attempt lives
// in the attempt's arena: it and its nodes are valid only until the
// attempt ends.
type Graph struct {
	Root  *Node
	Block *ir.Block
	// Nodes lists every node, in creation (bottom-up discovery) order.
	Nodes []*Node
	// Matched maps every instruction claimed by a match/reduction node
	// to its lane (reduction internals no match node claims use lane
	// -1).
	Matched map[*ir.Instr]int
}

// NodeCounts tallies the node kinds in the graph (Fig. 16 / Fig. 19).
func (g *Graph) NodeCounts() map[NodeKind]int {
	m := make(map[NodeKind]int, 4)
	g.AddNodeCounts(m)
	return m
}

// AddNodeCounts accumulates the graph's node-kind tallies into dst, so
// callers aggregating many graphs (the stats collector, rolagd's
// per-request counts) reuse one map instead of allocating per graph.
func (g *Graph) AddNodeCounts(dst map[NodeKind]int) {
	for _, n := range g.Nodes {
		dst[n.Kind]++
	}
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	seen := make(map[*Node]bool)
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&sb, "%s- %s", strings.Repeat("  ", depth), n.Kind)
		switch n.Kind {
		case KindIntSeq:
			fmt.Fprintf(&sb, " %d..%d,%d", n.Start, n.Start+int64(len(n.Vals)-1)*n.Step, n.Step)
		case KindMatch:
			fmt.Fprintf(&sb, " %s", n.Op)
			if n.Callee != nil {
				fmt.Fprintf(&sb, " @%s", n.Callee.Name)
			}
		case KindIdentical:
			fmt.Fprintf(&sb, " %s", n.Vals[0].Ident())
		case KindReduction:
			fmt.Fprintf(&sb, " %s", n.RedOp)
		}
		if seen[n] {
			sb.WriteString(" (shared)\n")
			return
		}
		seen[n] = true
		sb.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
		for _, gr := range n.Groups {
			walk(gr, depth+1)
		}
		if n.RefParent != nil {
			fmt.Fprintf(&sb, "%s  (cycles to %s)\n", strings.Repeat("  ", depth), n.RefParent.Op)
		}
	}
	walk(g.Root, 0)
	return sb.String()
}

// errAbort is the internal "this attempt cannot roll" sentinel. code
// is a stable machine-readable slug (the remark Reason field and the
// experiments' rejected-by-reason tables key on it); reason is the
// human-readable explanation.
type errAbort struct {
	code   string
	reason string
}

func (e *errAbort) Error() string { return "rolag: " + e.reason }

// attemptArena is the memory the roll attempts of one RollFuncInto
// call align and schedule in. The first attempt makes it, every later
// attempt of the call reuses it (maps cleared, stores rewound, nothing
// reallocated), and it dies with the call. The Graph and Schedule of an
// attempt live in it, so they are valid only until the attempt ends:
// nothing may keep a node, a lane slice or Graph.Matched past tryRoll.
type attemptArena struct {
	gb    graphBuilder
	graph Graph
	sc    scheduler
}

// graphBuilder constructs an alignment graph bottom-up. It lives in an
// attemptArena and is reset, not rebuilt, for every attempt: its maps
// are cleared and its stores rewound, so a graph that fails (or is
// rejected after scheduling) leaves no garbage behind.
type graphBuilder struct {
	opts  *Options
	block *ir.Block
	// memo maps a lane group's key hash to its memoized nodes.
	memo map[uint64]*memoEntry
	// matched maps each instruction claimed by a match node to its lane
	// (the first claim of a shared pure instruction stands); it becomes
	// Graph.Matched, which adds the reduction internals.
	matched map[*ir.Instr]int
	nodes   []*Node
	// intern assigns the dense value ids behind memoization keys; it is
	// shared across all graph builds of a function (via the analysis
	// cache) so ids — and their map entries — are reused.
	intern *analysis.Interner
	// keyBuf is the scratch buffer groupKey encodes into.
	keyBuf []byte
	// byLane0 indexes the match nodes by their lane-0 instruction, the
	// only nodes a group can form a recurrence with (recursOn needs
	// vals[1] == ref.Insts[0]). Each entry heads a list, newest first,
	// linked through Node.prevLane0.
	byLane0 map[*ir.Instr]*Node
	// seen is the duplicate-lane scratch set of tryMatch and the
	// neutral-element builders, cleared before each use; every use ends
	// before the builder recurses.
	seen map[*ir.Instr]bool
	// neutrals are the neutral elements tryNeutralBinOp pads with.
	neutrals []neutralConst

	// The stores every node, lane slice and memo entry of the graph
	// comes from.
	nodeStore chunks[Node]
	valStore  chunks[ir.Value]
	instStore chunks[*ir.Instr]
	kidStore  chunks[*Node]
	memoStore chunks[memoEntry]
	keyStore  chunks[byte]
}

// reset readies gb for a new graph of block b: the maps are cleared
// (made on first use) and the stores rewound.
func (gb *graphBuilder) reset(opts *Options, b *ir.Block, intern *analysis.Interner) {
	gb.opts, gb.block, gb.intern = opts, b, intern
	if gb.memo == nil {
		gb.memo = make(map[uint64]*memoEntry)
		gb.matched = make(map[*ir.Instr]int)
		gb.byLane0 = make(map[*ir.Instr]*Node)
		gb.seen = make(map[*ir.Instr]bool)
	}
	clear(gb.memo)
	clear(gb.matched)
	clear(gb.byLane0)
	gb.nodes = gb.nodes[:0]
	gb.neutrals = gb.neutrals[:0]
	gb.nodeStore.reset()
	gb.valStore.reset()
	gb.instStore.reset()
	gb.kidStore.reset()
	gb.memoStore.reset()
	gb.keyStore.reset()
}

// chunks is a bump store of T: take hands out slices carved from a
// list of chunks that doubles as it grows, and reset makes every chunk
// available again without freeing it.
type chunks[T any] struct {
	list [][]T
	cur  int // the chunk take carves from
	off  int // the first free element of list[cur]
}

// minChunk is the length of a store's first chunk.
const minChunk = 16

func (c *chunks[T]) reset() { c.cur, c.off = 0, 0 }

// take returns a slice of length and capacity n, valid until the next
// reset. After a reset its elements may hold an earlier attempt's
// values: every caller sets each one before reading it.
func (c *chunks[T]) take(n int) []T {
	for ; c.cur < len(c.list); c.cur, c.off = c.cur+1, 0 {
		if ch := c.list[c.cur]; c.off+n <= len(ch) {
			s := ch[c.off : c.off+n : c.off+n]
			c.off += n
			return s
		}
	}
	size := minChunk
	if k := len(c.list); k > 0 {
		size = 2 * len(c.list[k-1])
	}
	ch := make([]T, max(size, n))
	c.list = append(c.list, ch)
	c.cur, c.off = len(c.list)-1, n
	return ch[:n:n]
}

// newNode stores n in the arena and returns its address.
func (gb *graphBuilder) newNode(n Node) *Node {
	p := &gb.nodeStore.take(1)[0]
	*p = n
	return p
}

// copyVals returns a copy of vals from the arena.
func (gb *graphBuilder) copyVals(vals []ir.Value) []ir.Value {
	s := gb.valStore.take(len(vals))
	copy(s, vals)
	return s
}

func (gb *graphBuilder) addNode(n *Node) *Node {
	gb.nodes = append(gb.nodes, n)
	if n.Kind == KindMatch && n.Insts[0] != nil {
		n.prevLane0 = gb.byLane0[n.Insts[0]]
		gb.byLane0[n.Insts[0]] = n
	}
	return n
}

// scratchSeen returns the cleared duplicate-lane set.
func (gb *graphBuilder) scratchSeen() map[*ir.Instr]bool {
	clear(gb.seen)
	return gb.seen
}

// groupKey identifies a lane group for memoization. Instructions and
// other named values key by identity; constants key by type and value so
// that structurally equal constant groups (e.g. the index sequence 0..n
// appearing under several parents) share one node. The key, left in
// gb.keyBuf, is the hash-consed id sequence of the lanes — four bytes
// per lane — rather than a formatted string; groupKey returns its
// FNV-1a hash, which indexes the memo.
func (gb *graphBuilder) groupKey(vals []ir.Value) uint64 {
	gb.keyBuf = gb.intern.AppendKey(gb.keyBuf[:0], vals)
	h := uint64(14695981039346656037)
	for _, c := range gb.keyBuf {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// memoEntry is one memoized lane group: its key and its node. Entries
// whose keys share a hash are chained, newest first.
type memoEntry struct {
	key  []byte
	node *Node
	next *memoEntry
}

// memoized returns the node memoized under the key in gb.keyBuf with
// hash h, or nil.
func (gb *graphBuilder) memoized(h uint64) *Node {
	for e := gb.memo[h]; e != nil; e = e.next {
		if bytes.Equal(e.key, gb.keyBuf) {
			return e.node
		}
	}
	return nil
}

// memoize records n under key, whose hash is h.
func (gb *graphBuilder) memoize(h uint64, key []byte, n *Node) {
	e := &gb.memoStore.take(1)[0]
	*e = memoEntry{key: key, node: n, next: gb.memo[h]}
	gb.memo[h] = e
}

// build classifies a lane group and returns its node. parent is the
// match node whose operands the group holds (used for recurrence
// detection); it may be nil.
func (gb *graphBuilder) build(vals []ir.Value, parent *Node) (*Node, error) {
	// Identical values across all lanes: loop-invariant.
	allSame := true
	for _, v := range vals[1:] {
		if !ir.SameValue(vals[0], v) {
			allSame = false
			break
		}
	}
	if allSame {
		return gb.addNode(gb.newNode(Node{Kind: KindIdentical, Vals: gb.copyVals(vals)})), nil
	}

	// Recurrence: lane k is some already-aligned node's lane k-1 value
	// (§IV.C4). The chained dependence usually references the parent
	// match node directly (Fig. 10), but conversions or sibling operands
	// can put the chain one or more nodes away, so every match node
	// discovered so far is a candidate: the parent first, then the
	// others newest first. Only a node whose lane-0 instruction is
	// vals[1] can qualify, so the others come from that index. Checked
	// before memoization because the result depends on graph context.
	if gb.opts.EnableRecurrence {
		ref := gb.findRecurrence(vals, parent)
		if recurrenceProbe != nil {
			recurrenceProbe(gb, vals, parent, ref)
		}
		if ref != nil {
			return gb.addNode(gb.newNode(Node{
				Kind:      KindRecurrence,
				Vals:      gb.copyVals(vals),
				Init:      vals[0],
				RefParent: ref,
			})), nil
		}
	}

	h := gb.groupKey(vals)
	if n := gb.memoized(h); n != nil {
		return n, nil
	}
	// classify reuses keyBuf, so the key moves to the arena first.
	key := gb.keyStore.take(len(gb.keyBuf))
	copy(key, gb.keyBuf)
	n, err := gb.classify(vals)
	if err != nil {
		return nil, err
	}
	gb.memoize(h, key, n)
	return n, nil
}

// recurrenceProbe, when set, sees every recurrence choice build makes,
// before the choice takes effect. Only tests set it.
var recurrenceProbe func(gb *graphBuilder, vals []ir.Value, parent, ref *Node)

// findRecurrence returns the first candidate vals form a recurrence on,
// or nil.
func (gb *graphBuilder) findRecurrence(vals []ir.Value, parent *Node) *Node {
	if parent != nil && parent.Kind == KindMatch && recursOn(vals, parent) {
		return parent
	}
	lane1, ok := vals[1].(*ir.Instr)
	if !ok {
		return nil
	}
	for ref := gb.byLane0[lane1]; ref != nil; ref = ref.prevLane0 {
		if ref != parent && recursOn(vals, ref) {
			return ref
		}
	}
	return nil
}

// recursOn reports whether vals form a chained dependence on ref: lane
// k reads ref's lane k-1 value, and lane 0 reads an initial value of the
// same type.
func recursOn(vals []ir.Value, ref *Node) bool {
	if len(ref.Insts) != len(vals) {
		return false
	}
	for k := 1; k < len(vals); k++ {
		if ref.Insts[k-1] == nil || vals[k] != ir.Value(ref.Insts[k-1]) {
			return false
		}
	}
	init := vals[0]
	if !init.Type().Equal(ref.Typ) {
		return false
	}
	// A lane 0 that is ref's last lane would be a degenerate self-cycle.
	return init != ir.Value(ref.Insts[len(vals)-1])
}

func (gb *graphBuilder) classify(vals []ir.Value) (*Node, error) {
	// Monotonic integer sequences (§IV.C1).
	if node := gb.tryIntSeq(vals); node != nil {
		return node, nil
	}
	// Isomorphic instructions.
	if node, err := gb.tryMatch(vals); node != nil || err != nil {
		return node, err
	}
	// Neutral pointer operations (§IV.C2).
	if gb.opts.EnableNeutralPtr {
		if node, err := gb.tryNeutralGep(vals); node != nil || err != nil {
			return node, err
		}
	}
	// Neutral elements of binary operations (§IV.C3).
	if gb.opts.EnableNeutralBinOp {
		if node, err := gb.tryNeutralBinOp(vals); node != nil || err != nil {
			return node, err
		}
	}
	return gb.mismatch(vals)
}

// tryIntSeq recognizes S0..Sn,step sequences of integer constants. It
// validates the lanes in one pass without an intermediate constant
// slice — this runs on every unmemoized leaf group, so the only
// allocation on the hit path is the node's own lane copy.
func (gb *graphBuilder) tryIntSeq(vals []ir.Value) *Node {
	if !gb.opts.EnableIntSeq || len(vals) < 2 {
		return nil
	}
	c0, ok := vals[0].(*ir.IntConst)
	if !ok {
		return nil
	}
	c1, ok := vals[1].(*ir.IntConst)
	if !ok {
		return nil
	}
	typ := c0.Typ
	step := c1.Val - c0.Val
	if step == 0 {
		return nil // identical would have caught equal lanes
	}
	prev := c0.Val
	for _, v := range vals[1:] {
		c, ok := v.(*ir.IntConst)
		if !ok || c.Typ != typ || c.Val-prev != step {
			return nil
		}
		prev = c.Val
	}
	return gb.addNode(gb.newNode(Node{
		Kind:   KindIntSeq,
		Vals:   gb.copyVals(vals),
		Start:  c0.Val,
		Step:   step,
		SeqTyp: typ,
	}))
}

// tryMatch builds a match node when all lanes are distinct isomorphic
// instructions from the seed block. The lanes are checked before
// anything is allocated.
func (gb *graphBuilder) tryMatch(vals []ir.Value) (*Node, error) {
	seen := gb.scratchSeen()
	for _, v := range vals {
		in, ok := v.(*ir.Instr)
		if !ok || in.Parent != gb.block || seen[in] {
			return nil, nil
		}
		if in.Op == ir.OpPhi || in.Op == ir.OpAlloca || in.IsTerminator() {
			return nil, nil
		}
		seen[in] = true
	}
	t := vals[0].(*ir.Instr)
	for _, v := range vals[1:] {
		in := v.(*ir.Instr)
		if in.Op != t.Op || !in.Typ.Equal(t.Typ) || in.Pred != t.Pred ||
			in.Callee != t.Callee || len(in.Operands) != len(t.Operands) {
			return nil, nil
		}
		for oi := range t.Operands {
			if !in.Operand(oi).Type().Equal(t.Operand(oi).Type()) {
				return nil, nil
			}
		}
	}
	insts := gb.instStore.take(len(vals))
	for i, v := range vals {
		insts[i] = v.(*ir.Instr)
	}
	return gb.makeMatch(insts)
}

// gepPlan decides how a group of isomorphic geps can be merged. If no
// struct-field index varies across lanes the geps merge directly. A
// varying struct index is only mergeable when it is the final index, all
// earlier indices are identical constants, and the indexed fields form a
// homogeneous run (equal types at offsets linear in the index) — then the
// merged gep is emitted through a bitcast with a flat element index
// (needCast true).
func gepPlan(insts []*ir.Instr) (needCast bool, elem ir.Type, prefixElems int64, ok bool) {
	t := insts[0]
	pt := t.Operand(0).Type().(ir.PointerType)
	cur := ir.Type(pt.Elem)
	prefixBytes := int64(0)
	prefixStatic := true
	numIdx := len(t.Operands) - 1
	for pos := 1; pos <= numIdx; pos++ {
		varying := false
		c0, isConst := ir.IntValue(t.Operand(pos))
		for _, in := range insts[1:] {
			if !ir.SameValue(in.Operand(pos), t.Operand(pos)) {
				varying = true
			}
		}
		st, isStruct := cur.(*ir.StructType)
		if pos == 1 {
			// The leading index steps whole pointees.
			if varying || !isConst {
				prefixStatic = false
			} else {
				prefixBytes += c0 * int64(cur.Size())
			}
			continue
		}
		switch {
		case isStruct && !varying:
			prefixBytes += int64(st.FieldOffset(int(c0)))
			cur = st.Fields[c0]
		case isStruct && varying:
			if pos != numIdx || !prefixStatic {
				return false, nil, 0, false
			}
			// Homogeneity over the lanes' field indices.
			var ft ir.Type
			for _, in := range insts {
				f, isC := ir.IntValue(in.Operand(pos))
				if !isC || int(f) >= len(st.Fields) {
					return false, nil, 0, false
				}
				if ft == nil {
					ft = st.Fields[f]
				} else if !st.Fields[f].Equal(ft) {
					return false, nil, 0, false
				}
				if int64(st.FieldOffset(int(f))) != f*int64(ft.Size()) {
					return false, nil, 0, false
				}
			}
			if ft.Size() == 0 || prefixBytes%int64(ft.Size()) != 0 {
				return false, nil, 0, false
			}
			return true, ft, prefixBytes / int64(ft.Size()), true
		default:
			at, isArr := cur.(ir.ArrayType)
			if !isArr {
				return false, nil, 0, false
			}
			if varying || !isConst {
				prefixStatic = false
			} else {
				prefixBytes += c0 * int64(at.Elem.Size())
			}
			cur = at.Elem
		}
	}
	return false, nil, 0, true
}

// claim records node n as the owner of each lane instruction. A pure
// (memory-effect-free) instruction may be claimed by several nodes at
// different lanes — each node regenerates its own copy inside the loop —
// but instructions with memory effects must have a single owner, since
// duplicating them would change the program's memory behaviour.
func (gb *graphBuilder) claim(insts []*ir.Instr) error {
	for lane, in := range insts {
		if in == nil {
			continue
		}
		if prev, ok := gb.matched[in]; ok {
			if in.HasMemoryEffect() || in.Op == ir.OpCall {
				return &errAbort{code: "side-effect-claimed-twice", reason: fmt.Sprintf("instruction %%%s with side effects claimed by two nodes (lanes %d and %d)", in.Name, prev, lane)}
			}
			continue // shared pure instruction; first claim stands
		}
		gb.matched[in] = lane
	}
	return nil
}

// makeMatch claims the lanes, creates the node and recurses into the
// operand groups. The node keeps insts, which nothing writes to.
func (gb *graphBuilder) makeMatch(insts []*ir.Instr) (*Node, error) {
	t := insts[0]
	var castElem ir.Type
	var prefixElems int64
	if t.Op == ir.OpGEP {
		needCast, elem, prefix, ok := gepPlan(insts)
		if !ok {
			return nil, nil
		}
		if needCast {
			castElem, prefixElems = elem, prefix
		}
	}
	vals := gb.valStore.take(len(insts))
	for i, in := range insts {
		vals[i] = in
	}
	n := gb.newNode(Node{
		Kind:           KindMatch,
		Vals:           vals,
		Insts:          insts,
		Op:             t.Op,
		Typ:            t.Typ,
		Pred:           t.Pred,
		Callee:         t.Callee,
		GepCastElem:    castElem,
		GepPrefixElems: prefixElems,
	})
	if err := gb.claim(insts); err != nil {
		return nil, err
	}
	gb.addNode(n)
	// One backing array for all operand groups; each group is a view.
	// The views stay alive only through node Vals copies, so the shared
	// backing is safe.
	numOps := len(t.Operands)
	lanes := len(insts)
	flat := gb.valStore.take(numOps * lanes)
	group := func(oi int) []ir.Value { return flat[oi*lanes : (oi+1)*lanes : (oi+1)*lanes] }
	for oi := 0; oi < numOps; oi++ {
		g := group(oi)
		for k, in := range insts {
			g[k] = in.Operand(oi)
		}
	}
	if gb.opts.EnableCommutative && t.Op.IsCommutative() && numOps == 2 {
		reorderCommutative(group(0), group(1))
	}
	n.Children = gb.kidStore.take(numOps)
	for oi := range n.Children {
		child, err := gb.build(group(oi), n)
		if err != nil {
			return nil, err
		}
		n.Children[oi] = child
	}
	return n, nil
}

// reorderCommutative swaps operand pairs lane-by-lane so each lane best
// resembles lane 0's orientation, uncovering more profitable alignments
// for commutative operations (§IV.C3).
func reorderCommutative(lhs, rhs []ir.Value) {
	refL, refR := lhs[0], rhs[0]
	for k := 1; k < len(lhs); k++ {
		straight := similarity(refL, lhs[k]) + similarity(refR, rhs[k])
		swapped := similarity(refL, rhs[k]) + similarity(refR, lhs[k])
		if swapped > straight {
			lhs[k], rhs[k] = rhs[k], lhs[k]
		}
	}
}

// similarity scores how alignable two values are.
func similarity(a, b ir.Value) int {
	if ir.SameValue(a, b) {
		return 4
	}
	ai, aok := a.(*ir.Instr)
	bi, bok := b.(*ir.Instr)
	if aok && bok {
		if ai.Op == bi.Op && ai.Typ.Equal(bi.Typ) {
			return 3
		}
		return 1
	}
	if ir.IsConst(a) && ir.IsConst(b) {
		return 2
	}
	if aok != bok {
		return 0
	}
	return 1
}

// tryNeutralGep exploits gep(p, 0) == p: if every lane is either a
// single-index gep off the same base pointer or the base pointer itself,
// the plain lanes are treated as virtual zero-offset geps (§IV.C2).
//
// Geps defined outside the seed block (typically hoisted by LICM) also
// participate: being pure and rematerializable they become virtual lanes
// — the merged gep is regenerated inside the loop and the originals are
// left untouched (dead-code elimination reclaims them if unused).
func (gb *graphBuilder) tryNeutralGep(vals []ir.Value) (*Node, error) {
	var base ir.Value
	var idxType ir.Type
	var resType ir.Type
	anyGep := false
	for _, v := range vals {
		if in, ok := v.(*ir.Instr); ok && in.Op == ir.OpGEP && len(in.Operands) == 2 {
			anyGep = true
			if base == nil {
				base = in.Operand(0)
				idxType = in.Operand(1).Type()
				resType = in.Typ
			} else if in.Operand(0) != base || !in.Operand(1).Type().Equal(idxType) || !in.Typ.Equal(resType) {
				return nil, nil
			}
		}
	}
	if !anyGep || base == nil {
		return nil, nil
	}
	// Every non-gep lane must equal the base pointer, and the gep result
	// type must equal the base type (true for single-index geps over
	// scalars).
	if !base.Type().Equal(resType) {
		return nil, nil
	}
	insts := gb.instStore.take(len(vals))
	idxGroup := gb.valStore.take(len(vals))
	seen := gb.scratchSeen()
	for k, v := range vals {
		if in, ok := v.(*ir.Instr); ok && in.Op == ir.OpGEP && len(in.Operands) == 2 && in.Operand(0) == base {
			if seen[in] {
				return nil, nil
			}
			seen[in] = true
			if in.Parent == gb.block {
				insts[k] = in
			} else {
				// Out-of-block gep: regenerate, do not claim. Its index
				// must be available before the loop, which holds since
				// it dominates the block already.
				insts[k] = nil
			}
			idxGroup[k] = in.Operand(1)
			continue
		}
		if v != base {
			return nil, nil
		}
		insts[k] = nil
		idxGroup[k] = ir.ZeroValue(idxType)
	}
	n := gb.newNode(Node{
		Kind:  KindMatch,
		Vals:  gb.copyVals(vals),
		Insts: insts,
		Op:    ir.OpGEP,
		Typ:   resType,
	})
	if err := gb.claim(insts); err != nil {
		return nil, err
	}
	gb.addNode(n)
	baseGroup := gb.valStore.take(len(vals))
	for k := range baseGroup {
		baseGroup[k] = base
	}
	return gb.buildPair(n, baseGroup, idxGroup)
}

// tryNeutralBinOp pads lanes that lack the group's dominant binary
// operation with its neutral element: x is treated as x op e (§IV.C3).
func (gb *graphBuilder) tryNeutralBinOp(vals []ir.Value) (*Node, error) {
	// Find the most frequent binary opcode among lanes that are
	// instructions in the block. Ties are broken by lane order (the op
	// that first reaches the winning count wins) so the choice never
	// depends on map iteration order.
	var counts [ir.NumOps]int
	var typ ir.Type
	var domOp ir.Op
	best := 0
	for _, v := range vals {
		if typ == nil {
			typ = v.Type()
		} else if !v.Type().Equal(typ) {
			return nil, nil
		}
		if in, ok := v.(*ir.Instr); ok && in.Parent == gb.block && in.Op.IsBinary() {
			counts[in.Op]++
			if counts[in.Op] > best {
				domOp, best = in.Op, counts[in.Op]
			}
		}
	}
	if best == 0 || best == len(vals) || best < len(vals)/2 {
		return nil, nil
	}
	neutral := gb.neutral(domOp, typ)
	if neutral == nil {
		return nil, nil
	}
	if domOp.IsFloatBinary() && !gb.opts.FastMath {
		// x op 0.0 is not an identity for every float x (e.g. -0.0, NaN
		// payloads) unless fast-math is on.
		return nil, nil
	}
	insts := gb.instStore.take(len(vals))
	lhs := gb.valStore.take(len(vals))
	rhs := gb.valStore.take(len(vals))
	seen := gb.scratchSeen()
	for k, v := range vals {
		if in, ok := v.(*ir.Instr); ok && in.Parent == gb.block && in.Op == domOp {
			if seen[in] {
				return nil, nil
			}
			seen[in] = true
			insts[k] = in
			lhs[k], rhs[k] = in.Operand(0), in.Operand(1)
			continue
		}
		insts[k] = nil
		lhs[k], rhs[k] = v, neutral
	}
	n := gb.newNode(Node{
		Kind:  KindMatch,
		Vals:  gb.copyVals(vals),
		Insts: insts,
		Op:    domOp,
		Typ:   typ,
	})
	if err := gb.claim(insts); err != nil {
		return nil, err
	}
	gb.addNode(n)
	if gb.opts.EnableCommutative && domOp.IsCommutative() {
		reorderCommutative(lhs, rhs)
	}
	return gb.buildPair(n, lhs, rhs)
}

// buildPair builds the two operand groups of match node n, in order,
// as its children.
func (gb *graphBuilder) buildPair(n *Node, lhs, rhs []ir.Value) (*Node, error) {
	l, err := gb.build(lhs, n)
	if err != nil {
		return nil, err
	}
	r, err := gb.build(rhs, n)
	if err != nil {
		return nil, err
	}
	n.Children = gb.kidStore.take(2)
	n.Children[0], n.Children[1] = l, r
	return n, nil
}

// neutral returns op's neutral element of type t, or nil. Each element
// is made once per graph: constants compare by content everywhere (the
// interner, ir.SameValue, CSE), so the lanes it pads may share it.
func (gb *graphBuilder) neutral(op ir.Op, t ir.Type) ir.Const {
	for _, n := range gb.neutrals {
		if n.op == op && n.c.Type() == t {
			return n.c
		}
	}
	c := op.NeutralElement(t)
	if c != nil {
		gb.neutrals = append(gb.neutrals, neutralConst{op, c})
	}
	return c
}

// neutralConst is one of the neutral elements a graph has made.
type neutralConst struct {
	op ir.Op
	c  ir.Const
}

// mismatch builds a mismatching node, verifying that the lanes share a
// scalar type so they can live in an array.
func (gb *graphBuilder) mismatch(vals []ir.Value) (*Node, error) {
	if !gb.opts.EnableMismatch {
		return nil, &errAbort{code: "mismatch-disabled", reason: "mismatching node with mismatch handling disabled"}
	}
	t := vals[0].Type()
	for _, v := range vals[1:] {
		if !v.Type().Equal(t) {
			return nil, &errAbort{code: "mismatch-type", reason: "mismatching lanes with different types"}
		}
	}
	switch t.(type) {
	case ir.IntType, ir.FloatType, ir.PointerType:
	default:
		return nil, &errAbort{code: "mismatch-nonscalar", reason: "mismatching lanes of non-scalar type"}
	}
	return gb.addNode(gb.newNode(Node{Kind: KindMismatch, Vals: gb.copyVals(vals)})), nil
}
