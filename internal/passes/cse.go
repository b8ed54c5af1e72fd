package passes

import (
	"math"
	"strconv"

	"rolag/internal/analysis"
	"rolag/internal/ir"
)

// CSE performs dominator-scoped common-subexpression elimination of pure
// instructions (arithmetic, comparisons, geps, casts, selects). Loads and
// calls are left alone — eliminating them would require memory dependence
// tracking. Returns true if anything changed.
//
// Besides shrinking code, CSE canonicalizes repeated address computations
// (e.g. the per-statement array-decay geps the frontend emits), which the
// alignment strategies rely on: RoLAG's neutral-pointer rule (§IV.C2)
// needs the shared base pointer to be one SSA value.
func CSE(f *ir.Func) bool {
	if f.IsDecl() {
		return false
	}
	return cseDom(f, analysis.ComputeDom(f))
}

// CSEInfo is CSE reading the dominator tree from the cached analyses
// instead of recomputing it; used by pipelines that carry an
// analysis.Manager.
func CSEInfo(f *ir.Func, fi *analysis.FuncInfo) bool {
	if f.IsDecl() {
		return false
	}
	return cseDom(f, fi.Dom())
}

func cseDom(f *ir.Func, di *analysis.DomInfo) bool {
	changed := false

	// Value-numbering state shared across the walk: identity ids for
	// named operands and one scratch buffer the keys are encoded into.
	ids := make(map[ir.Value]uint32)
	var buf []byte

	// One value table for the dominator-tree walk: a block's keys join
	// it on entry and leave it, through the undo log, when the walk
	// returns from the block's subtree. A key is inserted only when no
	// open scope holds it, so removing it on exit is exact. The entry's
	// scope closes only when the walk ends, so its keys are not logged.
	entry := f.Entry()
	table := make(map[string]*ir.Instr)
	var undo []string

	// Eliminated instructions leave their block in one sweep per block.
	dead := make(map[*ir.Instr]bool)
	isDead := func(in *ir.Instr) bool { return dead[in] }
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		mark := len(undo)
		for _, in := range b.Instrs {
			kb, ok := cseKey(in, ids, buf[:0])
			buf = kb
			if !ok {
				continue
			}
			if prev, ok := table[string(kb)]; ok {
				f.ReplaceAllUses(in, prev)
				dead[in] = true
				continue
			}
			k := string(kb)
			table[k] = in
			if b != entry {
				undo = append(undo, k)
			}
		}
		if len(dead) > 0 {
			b.RemoveIf(isDead)
			clear(dead)
			changed = true
		}
		for _, c := range di.Children[b] {
			visit(c)
		}
		for _, k := range undo[mark:] {
			delete(table, k)
		}
		undo = undo[:mark]
	}
	visit(entry)
	if loadCSE(f) {
		changed = true
	}
	return changed
}

// loadCSE eliminates redundant loads within each block: a load from p
// reuses an earlier load of the same pointer value (or the value of an
// earlier store to it) as long as no intervening instruction may write
// memory that aliases p. Strictly block-local, so no path-sensitivity is
// needed.
func loadCSE(f *ir.Func) bool {
	changed := false
	dead := make(map[*ir.Instr]bool)
	for _, b := range f.Blocks {
		avail := memState{}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				p := in.Operand(0)
				if v, ok := avail.get(p); ok {
					f.ReplaceAllUses(in, v)
					dead[in] = true
					continue
				}
				avail.set(p, in)
			case ir.OpStore:
				p := in.Operand(1)
				avail.clobber(p)
				avail.set(p, in.Operand(0))
			case ir.OpCall:
				if in.Callee == nil || !in.Callee.ReadOnly {
					avail = memState{}
				}
			}
		}
		if len(dead) > 0 {
			b.RemoveIf(func(in *ir.Instr) bool { return dead[in] })
			clear(dead)
			changed = true
		}
	}
	return changed
}

// memState maps each pointer to the value known to be stored at it,
// grouped by the identified object (alloca or global) the pointer
// points into; the nil group holds pointers into anything else. A store
// into an identified object then tests only its own group and the nil
// group: pointers into distinct identified objects never alias.
type memState map[ir.Value]map[ir.Value]ir.Value

func (s memState) get(p ir.Value) (ir.Value, bool) {
	v, ok := s[analysis.IdentifiedRoot(p)][p]
	return v, ok
}

func (s memState) set(p, v ir.Value) {
	r := analysis.IdentifiedRoot(p)
	if s[r] == nil {
		s[r] = make(map[ir.Value]ir.Value)
	}
	s[r][p] = v
}

// clobber forgets every pointer other than p that may alias p.
func (s memState) clobber(p ir.Value) {
	r := analysis.IdentifiedRoot(p)
	for obj, group := range s {
		if r != nil && obj != nil && obj != r {
			continue
		}
		for q := range group {
			if q != p && analysis.MayAlias(p, q) {
				delete(group, q)
			}
		}
	}
}

// cseKey appends a structural key for pure instruction in to buf and
// reports whether the instruction is CSE-able. Constants encode by
// exact content (so structurally equal constants collide, as they
// must); every other operand encodes by a dense identity id from ids.
// The encoding uses strconv appends into the caller's scratch buffer —
// no fmt, no intermediate strings.
func cseKey(in *ir.Instr, ids map[ir.Value]uint32, buf []byte) ([]byte, bool) {
	switch {
	case in.Op.IsBinary(), in.Op.IsCast(),
		in.Op == ir.OpGEP, in.Op == ir.OpICmp, in.Op == ir.OpFCmp,
		in.Op == ir.OpSelect:
	default:
		return buf, false
	}
	buf = strconv.AppendUint(buf, uint64(in.Op), 10)
	buf = append(buf, '|')
	buf = append(buf, in.Typ.String()...)
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, uint64(in.Pred), 10)
	buf = append(buf, '|')
	for _, op := range in.Operands {
		switch c := op.(type) {
		case *ir.IntConst:
			buf = append(buf, 'i')
			buf = strconv.AppendInt(buf, int64(c.Typ.Bits), 10)
			buf = append(buf, ':')
			buf = strconv.AppendInt(buf, c.Val, 10)
		case *ir.FloatConst:
			buf = append(buf, 'f')
			buf = strconv.AppendInt(buf, int64(c.Typ.Bits), 10)
			buf = append(buf, ':')
			buf = strconv.AppendUint(buf, math.Float64bits(c.Val), 16)
		case *ir.NullConst:
			buf = append(buf, 'n')
			buf = append(buf, c.Typ.String()...)
		default:
			id, ok := ids[op]
			if !ok {
				id = uint32(len(ids))
				ids[op] = id
			}
			buf = append(buf, 'v')
			buf = strconv.AppendUint(buf, uint64(id), 10)
		}
		buf = append(buf, ';')
	}
	return buf, true
}
