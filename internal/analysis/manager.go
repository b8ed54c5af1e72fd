package analysis

import (
	"math"

	"rolag/internal/ir"
)

// Manager caches per-function analyses so the optimization hot paths
// (seed collection, alignment, scheduling, CSE) stop recomputing
// position indexes and dominators on every query. Results are memoized
// per *ir.Func and stay valid until a pass mutates the function and
// calls Invalidate. Def-use chains are not cached here: the IR keeps
// them current itself (ir.Instr.Users).
//
// A Manager is NOT safe for concurrent use: each compilation job owns
// the Managers it creates, as it owns the functions it mutates.
type Manager struct {
	infos map[*ir.Func]*FuncInfo
	// nocache forces every Info call to return a fresh, empty FuncInfo,
	// turning all cached queries into recomputations. Used to validate
	// the invalidation contract: a cached and an uncached pipeline must
	// produce byte-identical IR.
	nocache bool
}

// NewManager returns an empty analysis cache.
func NewManager() *Manager {
	return &Manager{infos: make(map[*ir.Func]*FuncInfo)}
}

// NewUncachedManager returns a Manager that never reuses an analysis:
// each Info call starts blank. It exists so differential tests can
// compare cached and uncached pipelines.
func NewUncachedManager() *Manager {
	return &Manager{infos: make(map[*ir.Func]*FuncInfo), nocache: true}
}

// Info returns the (lazily computed) analyses for f.
func (am *Manager) Info(f *ir.Func) *FuncInfo {
	if am.nocache {
		return &FuncInfo{f: f}
	}
	fi, ok := am.infos[f]
	if !ok {
		fi = &FuncInfo{f: f}
		am.infos[f] = fi
	}
	return fi
}

// Invalidate drops every cached analysis for f. Passes must call it
// (directly or through their pipeline) after mutating f; the next query
// recomputes from the new IR.
func (am *Manager) Invalidate(f *ir.Func) {
	delete(am.infos, f)
}

// FuncInfo holds the cached analyses of one function. Every accessor
// computes on first use and memoizes; the struct is invalidated as a
// whole (the analyses are cheap relative to the queries they serve, and
// fine-grained dirty tracking is not worth the bookkeeping).
type FuncInfo struct {
	f      *ir.Func
	index  map[*ir.Instr]int
	dom    *DomInfo
	intern *Interner
}

// Func returns the function this info describes.
func (fi *FuncInfo) Func() *ir.Func { return fi.f }

// Index returns a map from every instruction to its position within its
// own block. Positions of instructions in different blocks are not
// comparable. Callers must not mutate the map.
func (fi *FuncInfo) Index() map[*ir.Instr]int {
	if fi.index == nil {
		n := 0
		for _, b := range fi.f.Blocks {
			n += len(b.Instrs)
		}
		fi.index = make(map[*ir.Instr]int, n)
		for _, b := range fi.f.Blocks {
			for i, in := range b.Instrs {
				fi.index[in] = i
			}
		}
	}
	return fi.index
}

// Dom returns the function's dominator-tree information, computed once.
func (fi *FuncInfo) Dom() *DomInfo {
	if fi.dom == nil {
		fi.dom = ComputeDom(fi.f)
	}
	return fi.dom
}

// Interner returns the function's value-interning table, shared by all
// alignment-graph builds of the function so group keys are tiny integer
// sequences instead of formatted strings.
func (fi *FuncInfo) Interner() *Interner {
	if fi.intern == nil {
		fi.intern = NewInterner()
	}
	return fi.intern
}

// Interner assigns small dense ids to IR values. Named values intern by
// identity; constants intern by content (type and literal), so
// structurally equal constants — e.g. the index sequence 0..n appearing
// under several parents — receive one id and hash-cons to the same
// group key. Integer and float constants key by comparable structs;
// the rare other constants by their type and spelling. Ids are handed
// out in first-sight order and are stable for the Interner's lifetime;
// an Interner survives function mutation because ids only accumulate
// (a stale id for a deleted value is unreachable, not wrong).
type Interner struct {
	ids    map[ir.Value]uint32
	ints   map[ir.IntConst]uint32
	floats map[floatKey]uint32
	consts map[string]uint32
	next   uint32
}

// floatKey is a float constant's content key. Keying by the bits keeps
// -0.0 apart from 0.0, as the spelling does; every NaN spells "NaN", so
// NaNs share one key.
type floatKey struct {
	typ  ir.FloatType
	bits uint64
}

// canonicalNaN is the bits every NaN constant keys by.
var canonicalNaN = math.Float64bits(math.NaN())

// NewInterner returns an empty interning table.
func NewInterner() *Interner {
	return &Interner{
		ids:    make(map[ir.Value]uint32),
		ints:   make(map[ir.IntConst]uint32),
		floats: make(map[floatKey]uint32),
		consts: make(map[string]uint32),
	}
}

// ID returns the dense id for v, allocating one on first sight.
func (it *Interner) ID(v ir.Value) uint32 {
	if id, ok := it.ids[v]; ok {
		return id
	}
	// Content key: structurally equal constants share an id even when
	// they are distinct Go objects.
	var id uint32
	switch c := v.(type) {
	case *ir.IntConst:
		id = internKey(it, it.ints, *c)
	case *ir.FloatConst:
		k := floatKey{typ: c.Typ, bits: math.Float64bits(c.Val)}
		if math.IsNaN(c.Val) {
			k.bits = canonicalNaN
		}
		id = internKey(it, it.floats, k)
	case ir.Const:
		id = internKey(it, it.consts, c.Type().String()+"\x00"+c.Ident())
	default:
		id = it.fresh()
	}
	it.ids[v] = id
	return id
}

// internKey returns the id of content key k in m, allocating one on
// first sight.
func internKey[K comparable](it *Interner, m map[K]uint32, k K) uint32 {
	if id, ok := m[k]; ok {
		return id
	}
	id := it.fresh()
	m[k] = id
	return id
}

// fresh allocates the next id.
func (it *Interner) fresh() uint32 {
	id := it.next
	it.next++
	return id
}

// AppendKey appends the ids of vals to dst in little-endian byte order,
// returning the extended slice. The resulting bytes (wrapped in a
// string) form a hash-consed group key: equal value sequences produce
// equal keys, distinct sequences distinct keys.
func (it *Interner) AppendKey(dst []byte, vals []ir.Value) []byte {
	for _, v := range vals {
		id := it.ID(v)
		dst = append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return dst
}
