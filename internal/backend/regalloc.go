package backend

import (
	"sort"

	"rolag/internal/backend/mach"
)

// Register allocation: linear scan over conservative live intervals.
//
// The GPR pool is callee-saved registers only, so values never need
// saving around calls, division, shifts, or argument setup — all of
// which use caller-saved physical registers directly. The XMM pool has
// no callee-saved registers on SysV, so intervals that cross a call are
// force-spilled. Copy-related intervals are hinted to share a register;
// the resulting self-moves are deleted, which is what keeps emitted
// byte counts close to a production compiler's.

// Pools. Functions that make calls allocate callee-saved GPRs only, so
// live values never need saving around a call; XMM registers are all
// caller-saved on SysV, so XMM intervals crossing a call spill. Leaf
// functions additionally use the caller-saved argument registers
// (cheapest: no push/pop), guarded by busy-until constraints while they
// still hold incoming parameters. %rax/%rcx/%rdx are never allocated —
// isel references them directly for returns, shifts, and division —
// and %r10/%r11/%xmm14/%xmm15 are reserved as spill scratch.
var gprPoolCall = []mach.Reg{mach.RBX, mach.RBP, mach.R12, mach.R13, mach.R14, mach.R15}
var gprPoolLeaf = []mach.Reg{mach.RDI, mach.RSI, mach.R8, mach.R9,
	mach.RBX, mach.RBP, mach.R12, mach.R13, mach.R14, mach.R15}
var xmmPoolCall = []mach.Reg{mach.XMM8, mach.XMM9, mach.XMM10, mach.XMM11, mach.XMM12, mach.XMM13}
var xmmPoolLeaf = []mach.Reg{mach.XMM0, mach.XMM1, mach.XMM2, mach.XMM3, mach.XMM4, mach.XMM5,
	mach.XMM6, mach.XMM7, mach.XMM8, mach.XMM9, mach.XMM10, mach.XMM11, mach.XMM12, mach.XMM13}

var gprScratch = []mach.Reg{mach.R10, mach.R11, mach.RAX}
var xmmScratch = []mach.Reg{mach.XMM14, mach.XMM15}

// instRegs appends the uses and defs of in, physical and virtual alike.
// Reads happen at position 2i, writes at 2i+1.
func instRegs(in *mach.Inst, uses, defs []mach.Reg) ([]mach.Reg, []mach.Reg) {
	addOperandUses := func(o mach.Operand) {
		switch o.Kind {
		case mach.KReg:
			uses = append(uses, o.Reg)
		case mach.KMem:
			if o.Base != mach.NoReg {
				uses = append(uses, o.Base)
			}
			if o.Index != mach.NoReg {
				uses = append(uses, o.Index)
			}
		}
	}

	// xorps r, r with identical operands is an idiom for zeroing: a
	// pure def, not a use.
	if in.Op == mach.OXorps && in.Src.Kind == mach.KReg && in.Dst.Kind == mach.KReg && in.Src.Reg == in.Dst.Reg {
		defs = append(defs, in.Dst.Reg)
		return uses, defs
	}

	addOperandUses(in.Src)
	switch in.Op {
	case mach.OMov, mach.OMovAbs, mach.OLea, mach.OMovzx, mach.OMovsx,
		mach.OSet, mach.OMovss, mach.OMovsd, mach.OMovd, mach.OMovq,
		mach.OCvtss2sd, mach.OCvtsd2ss, mach.OCvtsi2ss, mach.OCvtsi2sd,
		mach.OCvttss2si, mach.OCvttsd2si:
		// Pure-def destination — unless it is a memory operand, whose
		// registers are address uses.
		if in.Dst.Kind == mach.KReg {
			defs = append(defs, in.Dst.Reg)
		} else {
			addOperandUses(in.Dst)
		}
	case mach.OCmp, mach.OTest, mach.OUcomiss, mach.OUcomisd:
		// Flag-setting compares read both operands.
		addOperandUses(in.Dst)
	case mach.ONop, mach.OJmp, mach.OJcc, mach.OCall, mach.ORet,
		mach.OCwd, mach.OIdiv, mach.ODiv, mach.OPush, mach.OPop:
		// No virtual-register destination (implicit operands are
		// physical and outside the allocatable pools).
	default:
		// Two-address ALU (add/sub/imul/and/or/xor/shifts/cmov/FP
		// arith): destination is read and written.
		if in.Dst.Kind == mach.KReg {
			uses = append(uses, in.Dst.Reg)
			defs = append(defs, in.Dst.Reg)
		} else {
			addOperandUses(in.Dst)
		}
	}
	return uses, defs
}

// isRegCopy reports whether in is a plain register-to-register copy
// whose deletion is safe when both sides land in the same register.
func isRegCopy(in *mach.Inst) bool {
	if in.Src.Kind != mach.KReg || in.Dst.Kind != mach.KReg {
		return false
	}
	switch in.Op {
	case mach.OMov:
		return in.Sz == 8 // 4-byte movs zero-extend; keep them
	case mach.OMovss, mach.OMovsd:
		return true
	}
	return false
}

type interval struct {
	vreg       mach.Reg
	start, end int
	spilled    bool
	phys       mach.Reg
	slot       int // spill slot (AllocaSlots index) when spilled
}

type allocator struct {
	f         *mach.Func
	intervals map[mach.Reg]*interval
	// hint maps a vreg to a copy-related register — another vreg or a
	// physical register (a parameter's incoming argument register).
	hint     map[mach.Reg]mach.Reg
	callPos  []int
	hasCalls bool
	// busyUntil[phys] is the last position at which isel reads the
	// physical register directly (incoming parameters); it cannot be
	// allocated to an interval starting at or before that.
	busyUntil map[mach.Reg]int
}

// regalloc assigns physical registers to every virtual register in f,
// rewrites the instruction stream (inserting spill code), deletes
// coalesced self-moves, and records the callee-saved registers used.
func regalloc(f *mach.Func) {
	a := &allocator{
		f:         f,
		intervals: make(map[mach.Reg]*interval),
		hint:      make(map[mach.Reg]mach.Reg),
		busyUntil: make(map[mach.Reg]int),
	}
	a.buildIntervals()
	a.scan()
	a.rewrite()
}

// blockSuccs returns the successor block indices of block bi.
func blockSuccs(f *mach.Func, bi int) []int {
	var succs []int
	insts := f.Blocks[bi].Insts
	for _, in := range insts {
		if in.Op == mach.OJmp || in.Op == mach.OJcc {
			succs = append(succs, in.Target)
		}
	}
	// A block ending in anything but jmp/ret falls through (including
	// the untaken side of a jcc and branches elided by block layout).
	falls := true
	if n := len(insts); n > 0 {
		falls = insts[n-1].Op != mach.OJmp && insts[n-1].Op != mach.ORet
	}
	if falls && bi+1 < len(f.Blocks) {
		succs = append(succs, bi+1)
	}
	return succs
}

func (a *allocator) buildIntervals() {
	f := a.f
	nb := len(f.Blocks)

	// Per-block gen (used before defined) and kill (defined) sets.
	gen := make([]map[mach.Reg]bool, nb)
	kill := make([]map[mach.Reg]bool, nb)
	var ubuf, dbuf []mach.Reg
	for bi, b := range f.Blocks {
		g, k := map[mach.Reg]bool{}, map[mach.Reg]bool{}
		for _, in := range b.Insts {
			ubuf, dbuf = instRegs(in, ubuf[:0], dbuf[:0])
			for _, u := range ubuf {
				if u.IsVirtual() && !k[u] {
					g[u] = true
				}
			}
			for _, d := range dbuf {
				if d.IsVirtual() {
					k[d] = true
				}
			}
		}
		gen[bi], kill[bi] = g, k
	}

	// Backward liveness fixpoint.
	liveIn := make([]map[mach.Reg]bool, nb)
	liveOut := make([]map[mach.Reg]bool, nb)
	for i := range liveIn {
		liveIn[i], liveOut[i] = map[mach.Reg]bool{}, map[mach.Reg]bool{}
	}
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			out := liveOut[bi]
			for _, s := range blockSuccs(f, bi) {
				for r := range liveIn[s] {
					if !out[r] {
						out[r] = true
						changed = true
					}
				}
			}
			in := liveIn[bi]
			for r := range gen[bi] {
				if !in[r] {
					in[r] = true
					changed = true
				}
			}
			for r := range out {
				if !kill[bi][r] && !in[r] {
					in[r] = true
					changed = true
				}
			}
		}
	}

	// Interval construction: reads at 2i, writes at 2i+1, extended to
	// block boundaries where live-in/live-out.
	touch := func(r mach.Reg, pos int) {
		iv, ok := a.intervals[r]
		if !ok {
			iv = &interval{vreg: r, start: pos, end: pos, phys: mach.NoReg}
			a.intervals[r] = iv
			return
		}
		if pos < iv.start {
			iv.start = pos
		}
		if pos > iv.end {
			iv.end = pos
		}
	}
	pos := 0
	blockStart := make([]int, nb)
	blockEnd := make([]int, nb)
	for bi, b := range f.Blocks {
		blockStart[bi] = 2 * pos
		for _, in := range b.Insts {
			ubuf, dbuf = instRegs(in, ubuf[:0], dbuf[:0])
			for _, u := range ubuf {
				if u.IsVirtual() {
					touch(u, 2*pos)
				} else if 2*pos > a.busyUntil[u] {
					// A direct physical read (incoming parameter):
					// the register is off-limits until here.
					a.busyUntil[u] = 2 * pos
				}
			}
			for _, d := range dbuf {
				if d.IsVirtual() {
					touch(d, 2*pos+1)
				}
			}
			if in.Op == mach.OCall {
				a.callPos = append(a.callPos, 2*pos)
				a.hasCalls = true
			}
			pos++
		}
		blockEnd[bi] = 2*pos - 1
		if len(b.Insts) == 0 {
			blockEnd[bi] = blockStart[bi]
		}
	}
	for bi := range f.Blocks {
		for r := range liveIn[bi] {
			touch(r, blockStart[bi])
		}
		for r := range liveOut[bi] {
			touch(r, blockEnd[bi])
		}
	}

	// Copy hints: virtual-virtual both ways, plus physical sources
	// (parameter moves — hinting the vreg to its argument register
	// turns the move into a deletable self-move in leaf functions).
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if !isRegCopy(in) || !in.Dst.Reg.IsVirtual() {
				continue
			}
			if _, ok := a.hint[in.Dst.Reg]; !ok {
				a.hint[in.Dst.Reg] = in.Src.Reg
			}
			if in.Src.Reg.IsVirtual() {
				if _, ok := a.hint[in.Src.Reg]; !ok {
					a.hint[in.Src.Reg] = in.Dst.Reg
				}
			}
		}
	}
}

func (iv *interval) crossesCall(callPos []int) bool {
	for _, p := range callPos {
		if iv.start < p && iv.end > p {
			return true
		}
	}
	return false
}

func (a *allocator) newSpillSlot() int {
	slot := len(a.f.AllocaSlots)
	a.f.AllocaSlots = append(a.f.AllocaSlots, mach.AllocaSlot{Size: 8, Align: 8})
	return slot
}

func (a *allocator) scan() {
	ivs := make([]*interval, 0, len(a.intervals))
	for _, iv := range a.intervals {
		ivs = append(ivs, iv)
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].vreg < ivs[j].vreg
	})

	gprPool, xmmPool := gprPoolLeaf, xmmPoolLeaf
	if a.hasCalls {
		gprPool, xmmPool = gprPoolCall, xmmPoolCall
	}
	free := map[mach.RegClass]map[mach.Reg]bool{
		mach.ClassGPR: {},
		mach.ClassXMM: {},
	}
	for _, r := range gprPool {
		free[mach.ClassGPR][r] = true
	}
	for _, r := range xmmPool {
		free[mach.ClassXMM][r] = true
	}
	var active []*interval

	expire := func(start int) {
		kept := active[:0]
		for _, iv := range active {
			if iv.end < start {
				free[a.f.Class(iv.vreg)][iv.phys] = true
			} else {
				kept = append(kept, iv)
			}
		}
		active = kept
	}

	poolOrder := func(c mach.RegClass) []mach.Reg {
		if c == mach.ClassXMM {
			return xmmPool
		}
		return gprPool
	}

	for _, iv := range ivs {
		expire(iv.start)
		class := a.f.Class(iv.vreg)
		if class == mach.ClassXMM && iv.crossesCall(a.callPos) {
			// No callee-saved XMM registers on SysV.
			iv.spilled = true
			iv.slot = a.newSpillSlot()
			continue
		}
		// usable rejects registers still holding an incoming parameter
		// that is read at or after this interval's start.
		usable := func(r mach.Reg) bool {
			if !free[class][r] {
				return false
			}
			bu, busy := a.busyUntil[r]
			return !busy || iv.start > bu
		}
		// Prefer the register of a copy-related vreg (or the incoming
		// argument register of a parameter) when available.
		var phys mach.Reg = mach.NoReg
		if h, ok := a.hint[iv.vreg]; ok {
			if h.IsVirtual() {
				if hiv, ok := a.intervals[h]; ok && !hiv.spilled && hiv.phys != mach.NoReg && usable(hiv.phys) {
					phys = hiv.phys
				}
			} else if usable(h) {
				phys = h
			}
		}
		if phys == mach.NoReg {
			for _, r := range poolOrder(class) {
				if usable(r) {
					phys = r
					break
				}
			}
		}
		if phys != mach.NoReg {
			iv.phys = phys
			free[class][phys] = false
			active = append(active, iv)
			continue
		}
		// Pool exhausted: spill whichever of (current, furthest-ending
		// active of this class) lives longest.
		var victim *interval
		for _, act := range active {
			if a.f.Class(act.vreg) != class {
				continue
			}
			if victim == nil || act.end > victim.end {
				victim = act
			}
		}
		if victim != nil && victim.end > iv.end {
			iv.phys = victim.phys
			victim.spilled = true
			victim.phys = mach.NoReg
			victim.slot = a.newSpillSlot()
			for i, act := range active {
				if act == victim {
					active = append(active[:i], active[i+1:]...)
					break
				}
			}
			active = append(active, iv)
		} else {
			iv.spilled = true
			iv.slot = a.newSpillSlot()
		}
	}

	// Unassigned phys on non-spilled intervals cannot happen (every
	// path sets one), but default to NoReg-safe behavior in rewrite.
}

// rewrite replaces virtual registers with their physical assignments,
// inserting spill loads/stores via scratch registers, deleting
// coalesced self-moves, and recording used callee-saved registers.
func (a *allocator) rewrite() {
	f := a.f
	usedSaved := map[mach.Reg]bool{}
	savedPool := map[mach.Reg]bool{}
	for _, r := range gprPoolCall {
		savedPool[r] = true
	}

	var ubuf, dbuf []mach.Reg
	for _, b := range f.Blocks {
		out := make([]*mach.Inst, 0, len(b.Insts))
		for _, in := range b.Insts {
			ubuf, dbuf = instRegs(in, ubuf[:0], dbuf[:0])

			// Scratch assignment for spilled vregs in this instruction.
			scratch := map[mach.Reg]mach.Reg{}
			nextG, nextX := 0, 0
			takeScratch := func(v mach.Reg) mach.Reg {
				if s, ok := scratch[v]; ok {
					return s
				}
				var s mach.Reg
				if f.Class(v) == mach.ClassXMM {
					s = xmmScratch[nextX]
					nextX++
				} else {
					s = gprScratch[nextG]
					nextG++
				}
				scratch[v] = s
				return s
			}
			spilledIn := func(rs []mach.Reg) []*interval {
				var res []*interval
				for _, r := range rs {
					if iv := a.intervals[r]; iv != nil && iv.spilled {
						res = append(res, iv)
					}
				}
				return res
			}

			// Fold spilled operands of plain moves straight to memory
			// instead of bouncing through a scratch register.
			if isFoldableMov(in) {
				if iv := a.spilledReg(in.Src); iv != nil && a.spilledReg(in.Dst) == nil {
					in.Src = mach.FrameOp(iv.slot, 0)
				} else if iv := a.spilledReg(in.Dst); iv != nil && a.spilledReg(in.Src) == nil &&
					in.Src.Kind == mach.KReg {
					in.Dst = mach.FrameOp(iv.slot, 0)
				}
				ubuf, dbuf = instRegs(in, ubuf[:0], dbuf[:0])
			}

			// Loads for spilled uses.
			for _, iv := range spilledIn(ubuf) {
				s := takeScratch(iv.vreg)
				out = append(out, a.reloadInst(iv, s))
			}
			defSpills := spilledIn(dbuf)
			for _, iv := range defSpills {
				takeScratch(iv.vreg)
			}

			// Substitute registers.
			mapReg := func(r mach.Reg) mach.Reg {
				if !r.IsVirtual() {
					return r
				}
				if s, ok := scratch[r]; ok {
					return s
				}
				iv := a.intervals[r]
				if iv == nil {
					// Defined but never live (dead def with no
					// interval cannot happen — defs create intervals);
					// fall back to a scratch register.
					return gprScratch[0]
				}
				return iv.phys
			}
			subst := func(o *mach.Operand) {
				switch o.Kind {
				case mach.KReg:
					o.Reg = mapReg(o.Reg)
				case mach.KMem:
					if o.Base != mach.NoReg {
						o.Base = mapReg(o.Base)
					}
					if o.Index != mach.NoReg {
						o.Index = mapReg(o.Index)
					}
				}
			}
			subst(&in.Src)
			subst(&in.Dst)

			// Coalesced copies vanish.
			if isRegCopy(in) && in.Src.Reg == in.Dst.Reg {
				continue
			}
			out = append(out, in)

			// Stores for spilled defs.
			for _, iv := range defSpills {
				out = append(out, a.storeInst(iv, scratch[iv.vreg]))
			}

			for _, o := range []mach.Operand{in.Src, in.Dst} {
				switch o.Kind {
				case mach.KReg:
					if savedPool[o.Reg] {
						usedSaved[o.Reg] = true
					}
				case mach.KMem:
					if savedPool[o.Base] {
						usedSaved[o.Base] = true
					}
					if savedPool[o.Index] {
						usedSaved[o.Index] = true
					}
				}
			}
		}
		b.Insts = out
	}

	for _, r := range gprPoolCall {
		if usedSaved[r] {
			f.SavedRegs = append(f.SavedRegs, r)
		}
	}
}

// spilledReg returns the interval when o is a spilled virtual register
// operand.
func (a *allocator) spilledReg(o mach.Operand) *interval {
	if o.Kind != mach.KReg || !o.Reg.IsVirtual() {
		return nil
	}
	if iv := a.intervals[o.Reg]; iv != nil && iv.spilled {
		return iv
	}
	return nil
}

// isFoldableMov reports whether in is a plain full-width move whose
// spilled register operand can become a direct memory operand.
func isFoldableMov(in *mach.Inst) bool {
	switch in.Op {
	case mach.OMov:
		return in.Sz == 8 && (in.Src.Kind == mach.KReg || in.Src.Kind == mach.KImm) && in.Dst.Kind == mach.KReg
	case mach.OMovss, mach.OMovsd:
		return in.Src.Kind == mach.KReg && in.Dst.Kind == mach.KReg
	}
	return false
}

func (a *allocator) reloadInst(iv *interval, scratch mach.Reg) *mach.Inst {
	src := mach.FrameOp(iv.slot, 0)
	if a.f.Class(iv.vreg) == mach.ClassXMM {
		return &mach.Inst{Op: mach.OMovsd, Sz: 8, Src: src, Dst: mach.RegOp(scratch)}
	}
	return &mach.Inst{Op: mach.OMov, Sz: 8, Src: src, Dst: mach.RegOp(scratch)}
}

func (a *allocator) storeInst(iv *interval, scratch mach.Reg) *mach.Inst {
	dst := mach.FrameOp(iv.slot, 0)
	if a.f.Class(iv.vreg) == mach.ClassXMM {
		return &mach.Inst{Op: mach.OMovsd, Sz: 8, Src: mach.RegOp(scratch), Dst: dst}
	}
	return &mach.Inst{Op: mach.OMov, Sz: 8, Src: mach.RegOp(scratch), Dst: dst}
}
