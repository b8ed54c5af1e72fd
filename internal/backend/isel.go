// Package backend lowers the typed SSA of internal/ir to x86-64
// machine code: instruction selection onto internal/backend/mach,
// linear-scan register allocation, frame layout, and (via
// internal/backend/encode) real encoded byte sizes. It is the
// measurement side of the cost model: costmodel estimates, backend
// measures, and the calibration in internal/experiments pins how far
// apart they drift.
//
// Covered subset — everything the mini-C frontend and RoLAG emit:
// integer/FP arithmetic at i8..i64/f32/f64, icmp/fcmp with branch
// folding, loads/stores with GEP-folded addressing (base+index*scale+
// disp and rip-relative), static allocas, SysV calls (register and
// stack args), phis (destroyed via per-edge temporaries), select via
// cmov, and the full cast set. Deliberate gaps, rejected with errors
// rather than guessed at: dynamic allocas, function pointers, and
// varargs — none of which the frontend can produce.
package backend

import (
	"encoding/binary"
	"fmt"
	"math"

	"rolag/internal/backend/mach"
	"rolag/internal/ir"
)

// SysV argument registers.
var intArgRegs = []mach.Reg{mach.RDI, mach.RSI, mach.RDX, mach.RCX, mach.R8, mach.R9}
var fpArgRegs = []mach.Reg{mach.XMM0, mach.XMM1, mach.XMM2, mach.XMM3, mach.XMM4, mach.XMM5, mach.XMM6, mach.XMM7}

// modLower carries module-wide lowering state: the output module and
// the deduplicated float-literal pool.
type modLower struct {
	out     *mach.Module
	fpPool  map[uint64]string // bits<<1|is32 -> symbol
	fpOrder []mach.RodataSym
}

func isFloat(t ir.Type) bool {
	_, ok := t.(ir.FloatType)
	return ok
}

// opSize returns the operand byte width used for a type.
func opSize(t ir.Type) int8 {
	switch t := t.(type) {
	case ir.IntType:
		switch {
		case t.Bits <= 8:
			return 1
		case t.Bits <= 16:
			return 2
		case t.Bits <= 32:
			return 4
		default:
			return 8
		}
	case ir.FloatType:
		return int8(t.Bits / 8)
	case ir.PointerType:
		return 8
	}
	return 8
}

// gprSize widens sub-32-bit integer operations to 32 bits: the upper
// bits of a virtual register holding an iN value are garbage, which is
// fine for everything except compares, stores, shifts right, and
// division (those normalize explicitly).
func gprSize(t ir.Type) int8 {
	if s := opSize(t); s == 8 {
		return 8
	}
	return 4
}

// addr is a resolved addressing expression for a folded GEP/alloca/
// global access: one of frame slot + disp, rip-relative sym + disp, or
// base reg (+ index*scale) + disp.
type addr struct {
	frame bool
	slot  int
	sym   string
	base  mach.Reg // NoReg unless register-based
	index mach.Reg // NoReg if none
	scale int8
	disp  int64
}

func (a addr) operand() mach.Operand {
	switch {
	case a.frame:
		return mach.FrameOp(a.slot, a.disp)
	case a.sym != "":
		return mach.SymOp(a.sym, a.disp)
	case a.index != mach.NoReg:
		return mach.MemIdxOp(a.base, a.index, a.scale, a.disp)
	default:
		return mach.MemOp(a.base, a.disp)
	}
}

type isel struct {
	ml  *modLower
	irf *ir.Func
	f   *mach.Func

	vreg       map[ir.Value]mach.Reg
	phiTmp     map[*ir.Instr]mach.Reg
	allocaSlot map[*ir.Instr]int
	gepAddr    map[*ir.Instr]addr
	foldedCmp  map[*ir.Instr]bool // icmp/fcmp emitted at the branch site
	blockIdx   map[*ir.Block]int

	cur *mach.Block
}

func (s *isel) emit(in *mach.Inst) { s.cur.Insts = append(s.cur.Insts, in) }

func (s *isel) errf(format string, args ...any) error {
	return fmt.Errorf("backend: %s: %s", s.irf.Name, fmt.Sprintf(format, args...))
}

// valueReg returns the vreg holding v, materializing constants and
// global addresses into fresh vregs as needed.
func (s *isel) valueReg(v ir.Value) (mach.Reg, error) {
	if r, ok := s.vreg[v]; ok {
		return r, nil
	}
	switch c := v.(type) {
	case *ir.IntConst:
		r := s.f.NewVReg(mach.ClassGPR)
		s.materializeInt(c.Val, opSize(c.Typ), r)
		return r, nil
	case *ir.NullConst:
		r := s.f.NewVReg(mach.ClassGPR)
		s.materializeInt(0, 8, r)
		return r, nil
	case *ir.UndefConst:
		if isFloat(c.Typ) {
			r := s.f.NewVReg(mach.ClassXMM)
			s.emit(&mach.Inst{Op: mach.OXorps, Sz: 4, Src: mach.RegOp(r), Dst: mach.RegOp(r)})
			return r, nil
		}
		r := s.f.NewVReg(mach.ClassGPR)
		s.materializeInt(0, 8, r)
		return r, nil
	case *ir.FloatConst:
		return s.floatReg(c), nil
	case *ir.Global:
		r := s.f.NewVReg(mach.ClassGPR)
		s.emit(&mach.Inst{Op: mach.OLea, Sz: 8, Src: mach.SymOp(c.Name, 0), Dst: mach.RegOp(r)})
		return r, nil
	case *ir.Instr:
		if c.Op == ir.OpAlloca || c.Op == ir.OpGEP {
			// Folded address value used in a register context; the
			// materializing paths should have assigned a vreg.
			return 0, s.errf("address value %s has no register", c.Ident())
		}
		return 0, s.errf("value %s has no vreg", c.Ident())
	}
	return 0, s.errf("unsupported operand %T", v)
}

// materializeInt loads an integer constant into r with the width
// gymnastics gas/gcc use: zero via the 32-bit form, imm64 via movabs.
func (s *isel) materializeInt(val int64, size int8, r mach.Reg) {
	switch {
	case val >= 0 && val <= math.MaxUint32 || size <= 4:
		// 32-bit mov zero-extends; covers all non-negative imm32 and
		// every sub-64-bit value (upper garbage is allowed there).
		s.emit(&mach.Inst{Op: mach.OMov, Sz: 4, Src: mach.ImmOp(int64(uint32(val))), Dst: mach.RegOp(r)})
	case val >= math.MinInt32:
		s.emit(&mach.Inst{Op: mach.OMov, Sz: 8, Src: mach.ImmOp(val), Dst: mach.RegOp(r)})
	default:
		s.emit(&mach.Inst{Op: mach.OMovAbs, Sz: 8, Src: mach.ImmOp(val), Dst: mach.RegOp(r)})
	}
}

// floatReg materializes a float constant: xorps for +0.0, otherwise a
// load from the deduplicated literal pool.
func (s *isel) floatReg(c *ir.FloatConst) mach.Reg {
	r := s.f.NewVReg(mach.ClassXMM)
	if c.Val == 0 && !math.Signbit(c.Val) {
		s.emit(&mach.Inst{Op: mach.OXorps, Sz: 4, Src: mach.RegOp(r), Dst: mach.RegOp(r)})
		return r
	}
	sym := s.ml.floatSym(c)
	op := mach.OMovsd
	if c.Typ.Bits == 32 {
		op = mach.OMovss
	}
	s.emit(&mach.Inst{Op: op, Sz: int8(c.Typ.Bits / 8), Src: mach.SymOp(sym, 0), Dst: mach.RegOp(r)})
	return r
}

func (ml *modLower) floatSym(c *ir.FloatConst) string {
	var key uint64
	var data []byte
	var align int64
	if c.Typ.Bits == 32 {
		bits := math.Float32bits(float32(c.Val))
		key = uint64(bits)<<1 | 1
		data = binary.LittleEndian.AppendUint32(nil, bits)
		align = 4
	} else {
		bits := math.Float64bits(c.Val)
		key = bits << 1
		data = binary.LittleEndian.AppendUint64(nil, bits)
		align = 8
	}
	if sym, ok := ml.fpPool[key]; ok {
		return sym
	}
	sym := fmt.Sprintf(".LC%d", len(ml.fpPool))
	ml.fpPool[key] = sym
	ml.fpOrder = append(ml.fpOrder, mach.RodataSym{Name: sym, Align: align, Data: data})
	return sym
}

// intRM returns v as an immediate operand when it is an int32-range
// constant, else as a register.
func (s *isel) intRM(v ir.Value) (mach.Operand, error) {
	if c, ok := v.(*ir.IntConst); ok && c.Val >= math.MinInt32 && c.Val <= math.MaxInt32 {
		return mach.ImmOp(c.Val), nil
	}
	if _, ok := v.(*ir.NullConst); ok {
		return mach.ImmOp(0), nil
	}
	r, err := s.valueReg(v)
	if err != nil {
		return mach.Operand{}, err
	}
	return mach.RegOp(r), nil
}

// addrOf resolves a pointer value to a memory addressing expression.
func (s *isel) addrOf(v ir.Value) (addr, error) {
	switch p := v.(type) {
	case *ir.Global:
		return addr{sym: p.Name, base: mach.NoReg, index: mach.NoReg}, nil
	case *ir.Instr:
		if a, ok := s.gepAddr[p]; ok {
			return a, nil
		}
		if slot, ok := s.allocaSlot[p]; ok {
			if _, hasReg := s.vreg[p]; !hasReg {
				return addr{frame: true, slot: slot, base: mach.NoReg, index: mach.NoReg}, nil
			}
		}
	case *ir.NullConst:
		return addr{}, s.errf("load/store through null pointer")
	}
	r, err := s.valueReg(v)
	if err != nil {
		return addr{}, err
	}
	return addr{base: r, index: mach.NoReg}, nil
}

// isAddrUser reports whether user u uses v purely as a load/store
// address (not as a stored value or any other operand).
func isAddrUser(u *ir.Instr, v ir.Value) bool {
	switch u.Op {
	case ir.OpLoad:
		return u.Operands[0] == v
	case ir.OpStore:
		return u.Operands[1] == v && u.Operands[0] != v
	}
	return false
}

func (s *isel) allAddrUsers(v *ir.Instr) bool {
	for _, u := range v.Users() {
		if !isAddrUser(u, v) {
			return false
		}
	}
	return true
}

// phiNeedsTmp reports whether phi p of block b needs the temp-register
// scheme for SSA destruction. The edge copies run sequentially at each
// predecessor, before the terminator, so writing p's register directly
// is unsafe when parallel-copy semantics could be violated — p's
// incoming value is itself a phi of b (its register may already hold
// this iteration's value), or another phi of b reads p — and when a
// predecessor's terminator still reads p after the copies (a latch
// branching on a header phi, directly or through a branch-folded
// compare).
func (s *isel) phiNeedsTmp(b *ir.Block, p *ir.Instr) bool {
	isPhiOfB := func(v ir.Value) bool {
		in, ok := v.(*ir.Instr)
		return ok && in.Op == ir.OpPhi && in.Parent == b
	}
	for _, q := range b.Phis() {
		for _, op := range q.Operands {
			if q == p && isPhiOfB(op) {
				return true
			}
			if q != p && op == ir.Value(p) {
				return true
			}
		}
	}
	predOfB := func(blk *ir.Block) bool {
		for _, succ := range blk.Succs() {
			if succ == b {
				return true
			}
		}
		return false
	}
	for _, u := range p.Users() {
		if u.Parent == nil || !predOfB(u.Parent) {
			continue
		}
		switch u.Op {
		case ir.OpCondBr:
			return true
		case ir.OpICmp, ir.OpFCmp:
			// Conservative: the compare might be folded into the
			// predecessor's branch and re-emitted after the copies.
			return true
		}
	}
	return false
}

var intPredCond = map[ir.Pred]mach.Cond{
	ir.PredEQ: mach.CondE, ir.PredNE: mach.CondNE,
	ir.PredSLT: mach.CondL, ir.PredSLE: mach.CondLE,
	ir.PredSGT: mach.CondG, ir.PredSGE: mach.CondGE,
	ir.PredULT: mach.CondB, ir.PredULE: mach.CondBE,
	ir.PredUGT: mach.CondA, ir.PredUGE: mach.CondAE,
}

// lowerFunc lowers one IR function. Block 0 of the mach function is a
// synthetic prologue block (parameter moves; frame setup is inserted
// there by finalizeFrame), followed by the IR blocks in layout order.
func (s *isel) lowerFunc() error {
	f := s.f
	s.blockIdx = make(map[*ir.Block]int, len(s.irf.Blocks))
	for i, b := range s.irf.Blocks {
		s.blockIdx[b] = i + 1
	}
	pro := &mach.Block{Name: "prologue"}
	f.Blocks = append(f.Blocks, pro)
	s.cur = pro

	// Parameter moves out of the SysV argument registers; an unused
	// parameter needs none.
	usedParams := make(map[*ir.Param]bool, len(s.irf.Params))
	for _, b := range s.irf.Blocks {
		for _, in := range b.Instrs {
			for _, op := range in.Operands {
				if p, ok := op.(*ir.Param); ok {
					usedParams[p] = true
				}
			}
		}
	}
	intIdx, fpIdx, stackOff := 0, 0, int64(0)
	for _, p := range s.irf.Params {
		fp := isFloat(p.Typ)
		var src mach.Operand
		switch {
		case fp && fpIdx < len(fpArgRegs):
			src = mach.RegOp(fpArgRegs[fpIdx])
			fpIdx++
		case !fp && intIdx < len(intArgRegs):
			src = mach.RegOp(intArgRegs[intIdx])
			intIdx++
		default:
			src = mach.IncomingOp(int(stackOff / 8))
			stackOff += 8
		}
		if !usedParams[p] {
			continue
		}
		if fp {
			r := s.f.NewVReg(mach.ClassXMM)
			s.vreg[p] = r
			op := mach.OMovsd
			if opSize(p.Typ) == 4 {
				op = mach.OMovss
			}
			s.emit(&mach.Inst{Op: op, Sz: opSize(p.Typ), Src: src, Dst: mach.RegOp(r)})
		} else {
			r := s.f.NewVReg(mach.ClassGPR)
			s.vreg[p] = r
			s.emit(&mach.Inst{Op: mach.OMov, Sz: 8, Src: src, Dst: mach.RegOp(r)})
		}
	}

	// Pre-pass: phi dst/tmp vregs, alloca slots, cmp-fold and
	// gep-fold decisions.
	if err := s.prepass(); err != nil {
		return err
	}

	for _, b := range s.irf.Blocks {
		mb := &mach.Block{Name: b.Name}
		f.Blocks = append(f.Blocks, mb)
		s.cur = mb
		// Phi landing copies: tmp -> dst (elided for hazard-free phis,
		// whose predecessors write the phi register directly).
		for _, phi := range b.Phis() {
			if s.phiTmp[phi] != s.vreg[phi] {
				s.copyReg(s.vreg[phi], s.phiTmp[phi], phi.Typ)
			}
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				continue
			}
			if err := s.lowerInstr(in); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *isel) copyReg(dst, src mach.Reg, t ir.Type) {
	if isFloat(t) {
		op := mach.OMovsd
		if opSize(t) == 4 {
			op = mach.OMovss
		}
		s.emit(&mach.Inst{Op: op, Sz: opSize(t), Src: mach.RegOp(src), Dst: mach.RegOp(dst)})
		return
	}
	s.emit(&mach.Inst{Op: mach.OMov, Sz: 8, Src: mach.RegOp(src), Dst: mach.RegOp(dst)})
}

func (s *isel) prepass() error {
	for _, b := range s.irf.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpPhi:
				class := mach.ClassGPR
				if isFloat(in.Typ) {
					class = mach.ClassXMM
				}
				s.vreg[in] = s.f.NewVReg(class)
				if s.phiNeedsTmp(b, in) {
					s.phiTmp[in] = s.f.NewVReg(class)
				} else {
					// No parallel-copy hazard on any edge: predecessors
					// write the phi register directly and the landing
					// copy disappears.
					s.phiTmp[in] = s.vreg[in]
				}
			case ir.OpAlloca:
				cnt, ok := in.Operands[0].(*ir.IntConst)
				if !ok {
					return s.errf("dynamic alloca %s not supported (deliberate encoder gap)", in.Ident())
				}
				size := int64(in.Alloc.Size()) * cnt.Val
				if size < 0 || size > 1<<20 {
					return s.errf("alloca %s size %d out of range", in.Ident(), size)
				}
				slot := len(s.f.AllocaSlots)
				s.f.AllocaSlots = append(s.f.AllocaSlots, mach.AllocaSlot{Size: size, Align: int64(in.Alloc.Align())})
				s.allocaSlot[in] = slot
			case ir.OpICmp, ir.OpFCmp:
				// Fold into the flag consumer when the comparison's
				// only user is a condbr (jcc) or a select (cmovcc) and
				// a single condition code implements it (every int
				// predicate; ordered FP relational predicates). For a
				// select the comparison must be the condition operand,
				// not an i1 data operand.
				us := in.Users()
				if len(us) == 1 && (us[0].Op == ir.OpCondBr ||
					us[0].Op == ir.OpSelect && us[0].Operands[0] == ir.Value(in) &&
						us[0].Operands[1] != ir.Value(in) && us[0].Operands[2] != ir.Value(in)) {
					ok := in.Op == ir.OpICmp
					switch in.Pred {
					case ir.PredOLT, ir.PredOLE, ir.PredOGT, ir.PredOGE:
						ok = true
					}
					if ok {
						s.foldedCmp[in] = true
					}
				}
			}
		}
	}
	return nil
}

// lowerGEP decomposes a GEP into const displacement + at most one
// scaled dynamic index, deciding between folding into user addressing
// and materializing the address into a vreg.
func (s *isel) lowerGEP(in *ir.Instr) error {
	baseVal := in.Operands[0]
	pt, ok := baseVal.Type().(ir.PointerType)
	if !ok {
		return s.errf("gep base %s is not a pointer", baseVal.Ident())
	}
	var disp int64
	type dyn struct {
		v     ir.Value
		scale int64
	}
	var dyns []dyn
	t := ir.Type(pt.Elem)
	for i, idxV := range in.Operands[1:] {
		var scale int64
		if i == 0 {
			scale = int64(t.Size())
		} else {
			switch at := t.(type) {
			case ir.ArrayType:
				t = at.Elem
				scale = int64(t.Size())
			case *ir.StructType:
				c, ok := idxV.(*ir.IntConst)
				if !ok {
					return s.errf("gep %s: non-constant struct field index", in.Ident())
				}
				disp += int64(at.FieldOffset(int(c.Val)))
				t = at.Fields[c.Val]
				continue
			default:
				return s.errf("gep %s: cannot index into %s", in.Ident(), t)
			}
		}
		if c, ok := idxV.(*ir.IntConst); ok {
			disp += c.Val * scale
			continue
		}
		dyns = append(dyns, dyn{idxV, scale})
	}

	// Normalize dynamic indices to 64-bit registers (sign-extended).
	idxReg := func(d dyn) (mach.Reg, error) {
		r, err := s.valueReg(d.v)
		if err != nil {
			return 0, err
		}
		if sz := opSize(d.v.Type()); sz < 8 {
			ext := s.f.NewVReg(mach.ClassGPR)
			s.emit(&mach.Inst{Op: mach.OMovsx, Sz: 8, SrcSz: sz, Src: mach.RegOp(r), Dst: mach.RegOp(ext)})
			return ext, nil
		}
		return r, nil
	}
	hwScale := func(sc int64) bool { return sc == 1 || sc == 2 || sc == 4 || sc == 8 }

	fitsDisp := disp >= math.MinInt32 && disp <= math.MaxInt32
	foldable := s.allAddrUsers(in) && fitsDisp && len(dyns) <= 1 &&
		(len(dyns) == 0 || hwScale(dyns[0].scale))
	if foldable {
		switch base := baseVal.(type) {
		case *ir.Global:
			if len(dyns) == 0 {
				s.gepAddr[in] = addr{sym: base.Name, disp: disp, base: mach.NoReg, index: mach.NoReg}
				return nil
			}
			// rip-relative has no index form: lea the base once, keep
			// the scaled index in the operand (what gcc emits for
			// table[i]).
			t := s.f.NewVReg(mach.ClassGPR)
			s.emit(&mach.Inst{Op: mach.OLea, Sz: 8, Src: mach.SymOp(base.Name, 0), Dst: mach.RegOp(t)})
			ix, err := idxReg(dyns[0])
			if err != nil {
				return err
			}
			s.gepAddr[in] = addr{base: t, index: ix, scale: int8(dyns[0].scale), disp: disp}
			return nil
		case *ir.Instr:
			if slot, ok := s.allocaSlot[base]; ok {
				if len(dyns) == 0 {
					s.gepAddr[in] = addr{frame: true, slot: slot, disp: disp, base: mach.NoReg, index: mach.NoReg}
					return nil
				}
				break // dynamic index over a frame slot: materialize
			}
		}
		if _, isGlobal := baseVal.(*ir.Global); !isGlobal {
			br, err := s.valueReg(baseVal)
			if err == nil {
				a := addr{base: br, index: mach.NoReg, disp: disp}
				if len(dyns) == 1 {
					ix, err := idxReg(dyns[0])
					if err != nil {
						return err
					}
					a.index, a.scale = ix, int8(dyns[0].scale)
				}
				s.gepAddr[in] = a
				return nil
			}
		}
	}

	// Materialize the full address into a vreg.
	dst := s.f.NewVReg(mach.ClassGPR)
	switch base := baseVal.(type) {
	case *ir.Global:
		s.emit(&mach.Inst{Op: mach.OLea, Sz: 8, Src: mach.SymOp(base.Name, disp), Dst: mach.RegOp(dst)})
	default:
		_ = base
		br, err := s.valueReg(baseVal)
		if err != nil {
			// Alloca base: lea the slot.
			if a, ok := baseVal.(*ir.Instr); ok {
				if slot, ok2 := s.allocaSlot[a]; ok2 {
					s.emit(&mach.Inst{Op: mach.OLea, Sz: 8, Src: mach.FrameOp(slot, disp), Dst: mach.RegOp(dst)})
					br = dst
					err = nil
				}
			}
			if err != nil {
				return err
			}
		} else if len(dyns) == 1 && hwScale(dyns[0].scale) && fitsDisp {
			// One lea covers base + idx*scale + disp.
			ix, err := idxReg(dyns[0])
			if err != nil {
				return err
			}
			s.emit(&mach.Inst{Op: mach.OLea, Sz: 8, Src: mach.MemIdxOp(br, ix, int8(dyns[0].scale), disp), Dst: mach.RegOp(dst)})
			s.vreg[in] = dst
			return nil
		} else {
			if disp != 0 && fitsDisp {
				s.emit(&mach.Inst{Op: mach.OLea, Sz: 8, Src: mach.MemOp(br, disp), Dst: mach.RegOp(dst)})
			} else {
				s.emit(&mach.Inst{Op: mach.OMov, Sz: 8, Src: mach.RegOp(br), Dst: mach.RegOp(dst)})
				if disp != 0 {
					tmp := s.f.NewVReg(mach.ClassGPR)
					s.materializeInt(disp, 8, tmp)
					s.emit(&mach.Inst{Op: mach.OAdd, Sz: 8, Src: mach.RegOp(tmp), Dst: mach.RegOp(dst)})
				}
			}
			br = dst
		}
	}
	// Remaining dynamic contributions: idx*scale added one at a time.
	for _, d := range dyns {
		ix, err := idxReg(d)
		if err != nil {
			return err
		}
		switch {
		case d.scale == 1:
			s.emit(&mach.Inst{Op: mach.OAdd, Sz: 8, Src: mach.RegOp(ix), Dst: mach.RegOp(dst)})
		case hwScale(d.scale):
			s.emit(&mach.Inst{Op: mach.OLea, Sz: 8, Src: mach.MemIdxOp(dst, ix, int8(d.scale), 0), Dst: mach.RegOp(dst)})
		default:
			t := s.f.NewVReg(mach.ClassGPR)
			s.emit(&mach.Inst{Op: mach.OMov, Sz: 8, Src: mach.RegOp(ix), Dst: mach.RegOp(t)})
			s.emit(&mach.Inst{Op: mach.OImul, Sz: 8, Src: mach.ImmOp(d.scale), Dst: mach.RegOp(t)})
			s.emit(&mach.Inst{Op: mach.OAdd, Sz: 8, Src: mach.RegOp(t), Dst: mach.RegOp(dst)})
		}
	}
	s.vreg[in] = dst
	return nil
}
