package backend

import (
	"math"

	"rolag/internal/backend/mach"
	"rolag/internal/ir"
)

var intBinOp = map[ir.Op]mach.Op{
	ir.OpAdd: mach.OAdd, ir.OpSub: mach.OSub, ir.OpMul: mach.OImul,
	ir.OpAnd: mach.OAnd, ir.OpOr: mach.OOr, ir.OpXor: mach.OXor,
	ir.OpShl: mach.OShl, ir.OpLShr: mach.OShr, ir.OpAShr: mach.OSar,
}

var fpBinOp = map[ir.Op]map[int8]mach.Op{
	ir.OpFAdd: {4: mach.OAddss, 8: mach.OAddsd},
	ir.OpFSub: {4: mach.OSubss, 8: mach.OSubsd},
	ir.OpFMul: {4: mach.OMulss, 8: mach.OMulsd},
	ir.OpFDiv: {4: mach.ODivss, 8: mach.ODivsd},
}

func (s *isel) lowerInstr(in *ir.Instr) error {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpLShr, ir.OpAShr:
		return s.lowerIntBinary(in)
	case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem:
		return s.lowerDiv(in)
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		return s.lowerFPBinary(in)
	case ir.OpICmp, ir.OpFCmp:
		if s.foldedCmp[in] {
			return nil // emitted at the condbr site
		}
		return s.lowerCmpValue(in)
	case ir.OpAlloca:
		// Slot assigned in prepass; expose the address in a register
		// only if some user needs it as a value.
		if !s.allAddrUsers(in) && !s.usedOnlyByFoldedGEPs(in) {
			r := s.f.NewVReg(mach.ClassGPR)
			s.emit(&mach.Inst{Op: mach.OLea, Sz: 8, Src: mach.FrameOp(s.allocaSlot[in], 0), Dst: mach.RegOp(r)})
			s.vreg[in] = r
		}
		return nil
	case ir.OpLoad:
		return s.lowerLoad(in)
	case ir.OpStore:
		return s.lowerStore(in)
	case ir.OpGEP:
		return s.lowerGEP(in)
	case ir.OpCall:
		return s.lowerCall(in)
	case ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpFPTrunc, ir.OpFPExt,
		ir.OpFPToSI, ir.OpSIToFP, ir.OpPtrToInt, ir.OpIntToPtr, ir.OpBitcast:
		return s.lowerCast(in)
	case ir.OpSelect:
		return s.lowerSelect(in)
	case ir.OpBr:
		if err := s.lowerPhiCopies(in); err != nil {
			return err
		}
		tgt := s.blockIdx[in.Blocks[0]]
		if tgt != s.fallthroughOf(in.Parent) {
			s.emit(&mach.Inst{Op: mach.OJmp, Target: tgt})
		}
		return nil
	case ir.OpCondBr:
		return s.lowerCondBr(in)
	case ir.OpRet:
		if len(in.Operands) == 1 {
			v := in.Operands[0]
			if isFloat(v.Type()) {
				r, err := s.valueReg(v)
				if err != nil {
					return err
				}
				op := mach.OMovsd
				if opSize(v.Type()) == 4 {
					op = mach.OMovss
				}
				s.emit(&mach.Inst{Op: op, Sz: opSize(v.Type()), Src: mach.RegOp(r), Dst: mach.RegOp(mach.XMM0)})
			} else {
				rm, err := s.intRM(v)
				if err != nil {
					return err
				}
				s.emit(&mach.Inst{Op: mach.OMov, Sz: gprSize(v.Type()), Src: rm, Dst: mach.RegOp(mach.RAX)})
			}
		}
		s.emit(&mach.Inst{Op: mach.ORet})
		return nil
	}
	return s.errf("unsupported opcode %s", in.Op)
}

// usedOnlyByFoldedGEPs reports whether every non-address user of an
// alloca is a GEP that folded the slot into its own addressing.
func (s *isel) usedOnlyByFoldedGEPs(v *ir.Instr) bool {
	for _, u := range v.Users() {
		if isAddrUser(u, v) {
			continue
		}
		if u.Op == ir.OpGEP && u.Operands[0] == v {
			continue // lowerGEP handles both folded and materialized bases
		}
		return false
	}
	return true
}

// fallthroughOf returns the mach block index that physically follows
// IR block b in the layout.
func (s *isel) fallthroughOf(b *ir.Block) int {
	return s.blockIdx[b] + 1
}

// lowerPhiCopies emits the incoming-edge copies (value -> phi temp)
// for every phi in the successors of the block ending with terminator
// `t`. Copies run before the compare/branch and never touch flags.
func (s *isel) lowerPhiCopies(t *ir.Instr) error {
	for _, succ := range t.Blocks {
		for _, phi := range succ.Phis() {
			v, ok := phi.PhiIncoming(t.Parent)
			if !ok {
				continue
			}
			tmp := s.phiTmp[phi]
			if c, ok := v.(*ir.IntConst); ok {
				s.materializeInt(c.Val, opSize(c.Typ), tmp)
				continue
			}
			if _, ok := v.(*ir.NullConst); ok {
				s.materializeInt(0, 8, tmp)
				continue
			}
			if fc, ok := v.(*ir.FloatConst); ok {
				r := s.floatReg(fc)
				s.copyReg(tmp, r, fc.Typ)
				continue
			}
			r, err := s.valueReg(v)
			if err != nil {
				return err
			}
			s.copyReg(tmp, r, v.Type())
		}
	}
	return nil
}

func (s *isel) lowerIntBinary(in *ir.Instr) error {
	lhs, rhs := in.Operands[0], in.Operands[1]
	sz := gprSize(in.Typ)
	dst := s.f.NewVReg(mach.ClassGPR)
	op := intBinOp[in.Op]

	// Logical/arithmetic right shifts see the true value: normalize a
	// narrow lhs before shifting at 32 bits.
	normalize := func(v ir.Value, signed bool) (mach.Operand, error) {
		srcSz := opSize(v.Type())
		if srcSz >= 4 {
			return s.intRM(v)
		}
		if c, ok := v.(*ir.IntConst); ok {
			val := c.Val
			if !signed {
				val = int64(uint64(val) & (1<<(uint(srcSz)*8) - 1))
			}
			return mach.ImmOp(val), nil
		}
		r, err := s.valueReg(v)
		if err != nil {
			return mach.Operand{}, err
		}
		ext := s.f.NewVReg(mach.ClassGPR)
		eop := mach.OMovzx
		if signed {
			eop = mach.OMovsx
		}
		s.emit(&mach.Inst{Op: eop, Sz: 4, SrcSz: srcSz, Src: mach.RegOp(r), Dst: mach.RegOp(ext)})
		return mach.RegOp(ext), nil
	}

	var lhsOp mach.Operand
	var err error
	if (in.Op == ir.OpLShr || in.Op == ir.OpAShr) && opSize(in.Typ) < 4 {
		lhsOp, err = normalize(lhs, in.Op == ir.OpAShr)
	} else {
		lhsOp, err = s.intRM(lhs)
	}
	if err != nil {
		return err
	}
	rhsOp, err := s.intRM(rhs)
	if err != nil {
		return err
	}

	// Prefer a register in the copy position for move coalescing.
	if lhsOp.Kind == mach.KImm && rhsOp.Kind == mach.KReg && in.Op.IsCommutative() {
		lhsOp, rhsOp = rhsOp, lhsOp
	}
	if lhsOp.Kind == mach.KReg {
		// Full-width copy: the allocator may coalesce it away, and an
		// 8-byte self-move is always deletable (a 4-byte one would be a
		// load-bearing zero-extension).
		s.emit(&mach.Inst{Op: mach.OMov, Sz: 8, Src: lhsOp, Dst: mach.RegOp(dst)})
	} else {
		s.emit(&mach.Inst{Op: mach.OMov, Sz: sz, Src: lhsOp, Dst: mach.RegOp(dst)})
	}

	switch in.Op {
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		if rhsOp.Kind == mach.KImm {
			s.emit(&mach.Inst{Op: op, Sz: sz, Src: mach.ImmOp(rhsOp.Imm & 63), Dst: mach.RegOp(dst)})
		} else {
			s.emit(&mach.Inst{Op: mach.OMov, Sz: 4, Src: rhsOp, Dst: mach.RegOp(mach.RCX)})
			s.emit(&mach.Inst{Op: op, Sz: sz, Src: mach.RegOp(mach.RCX), Dst: mach.RegOp(dst)})
		}
	default:
		s.emit(&mach.Inst{Op: op, Sz: sz, Src: rhsOp, Dst: mach.RegOp(dst)})
	}
	s.vreg[in] = dst
	return nil
}

// lowerDiv emits the rdx:rax division sequence. Narrow operands are
// extended to 32 bits first — division, unlike the other ALU ops,
// reads the full register.
func (s *isel) lowerDiv(in *ir.Instr) error {
	signed := in.Op == ir.OpSDiv || in.Op == ir.OpSRem
	rem := in.Op == ir.OpSRem || in.Op == ir.OpURem
	sz := gprSize(in.Typ)

	widen := func(v ir.Value) (mach.Operand, error) {
		srcSz := opSize(v.Type())
		if srcSz >= 4 {
			return s.intRM(v)
		}
		if c, ok := v.(*ir.IntConst); ok {
			val := c.Val
			if !signed {
				val = int64(uint64(val) & (1<<(uint(srcSz)*8) - 1))
			}
			return mach.ImmOp(val), nil
		}
		r, err := s.valueReg(v)
		if err != nil {
			return mach.Operand{}, err
		}
		ext := s.f.NewVReg(mach.ClassGPR)
		eop := mach.OMovzx
		if signed {
			eop = mach.OMovsx
		}
		s.emit(&mach.Inst{Op: eop, Sz: 4, SrcSz: srcSz, Src: mach.RegOp(r), Dst: mach.RegOp(ext)})
		return mach.RegOp(ext), nil
	}

	lhsOp, err := widen(in.Operands[0])
	if err != nil {
		return err
	}
	rhsOp, err := widen(in.Operands[1])
	if err != nil {
		return err
	}
	// Divisor must be a register.
	if rhsOp.Kind == mach.KImm {
		t := s.f.NewVReg(mach.ClassGPR)
		s.materializeInt(rhsOp.Imm, sz, t)
		rhsOp = mach.RegOp(t)
	}
	s.emit(&mach.Inst{Op: mach.OMov, Sz: sz, Src: lhsOp, Dst: mach.RegOp(mach.RAX)})
	if signed {
		s.emit(&mach.Inst{Op: mach.OCwd, Sz: sz})
		s.emit(&mach.Inst{Op: mach.OIdiv, Sz: sz, Src: rhsOp})
	} else {
		s.emit(&mach.Inst{Op: mach.OXor, Sz: 4, Src: mach.RegOp(mach.RDX), Dst: mach.RegOp(mach.RDX)})
		s.emit(&mach.Inst{Op: mach.ODiv, Sz: sz, Src: rhsOp})
	}
	dst := s.f.NewVReg(mach.ClassGPR)
	res := mach.RAX
	if rem {
		res = mach.RDX
	}
	s.emit(&mach.Inst{Op: mach.OMov, Sz: sz, Src: mach.RegOp(res), Dst: mach.RegOp(dst)})
	s.vreg[in] = dst
	return nil
}

func (s *isel) lowerFPBinary(in *ir.Instr) error {
	sz := opSize(in.Typ)
	lhs, err := s.valueReg(in.Operands[0])
	if err != nil {
		return err
	}
	// The rhs can stay in memory for pool constants, but keeping it
	// uniform in registers keeps the allocator honest; constants are
	// materialized by valueReg.
	rhs, err := s.valueReg(in.Operands[1])
	if err != nil {
		return err
	}
	dst := s.f.NewVReg(mach.ClassXMM)
	mov := mach.OMovsd
	if sz == 4 {
		mov = mach.OMovss
	}
	s.emit(&mach.Inst{Op: mov, Sz: sz, Src: mach.RegOp(lhs), Dst: mach.RegOp(dst)})
	s.emit(&mach.Inst{Op: fpBinOp[in.Op][sz], Sz: sz, Src: mach.RegOp(rhs), Dst: mach.RegOp(dst)})
	s.vreg[in] = dst
	return nil
}

// emitCompare emits the flag-setting compare for an icmp/fcmp and
// returns the condition code that makes the comparison true.
func (s *isel) emitCompare(in *ir.Instr) (mach.Cond, error) {
	lhs, rhs := in.Operands[0], in.Operands[1]
	if in.Op == ir.OpICmp {
		sz := opSize(lhs.Type())
		lr, err := s.valueReg(lhs)
		if err != nil {
			return 0, err
		}
		rm, err := s.intRM(rhs)
		if err != nil {
			return 0, err
		}
		// Byte compares of sub-byte immediates must be in range.
		if rm.Kind == mach.KImm && sz == 1 {
			rm.Imm = int64(int8(rm.Imm))
		}
		s.emit(&mach.Inst{Op: mach.OCmp, Sz: sz, Src: rm, Dst: mach.RegOp(lr)})
		return intPredCond[in.Pred], nil
	}
	// Ordered FP relational compare via ucomis*: arrange operands so
	// the condition is A/AE, which are false on unordered inputs.
	sz := opSize(lhs.Type())
	op := mach.OUcomisd
	if sz == 4 {
		op = mach.OUcomiss
	}
	a, err := s.valueReg(lhs)
	if err != nil {
		return 0, err
	}
	b, err := s.valueReg(rhs)
	if err != nil {
		return 0, err
	}
	switch in.Pred {
	case ir.PredOGT:
		s.emit(&mach.Inst{Op: op, Sz: sz, Src: mach.RegOp(b), Dst: mach.RegOp(a)})
		return mach.CondA, nil
	case ir.PredOGE:
		s.emit(&mach.Inst{Op: op, Sz: sz, Src: mach.RegOp(b), Dst: mach.RegOp(a)})
		return mach.CondAE, nil
	case ir.PredOLT:
		s.emit(&mach.Inst{Op: op, Sz: sz, Src: mach.RegOp(a), Dst: mach.RegOp(b)})
		return mach.CondA, nil
	case ir.PredOLE:
		s.emit(&mach.Inst{Op: op, Sz: sz, Src: mach.RegOp(a), Dst: mach.RegOp(b)})
		return mach.CondAE, nil
	}
	return 0, s.errf("fcmp predicate %s needs the setcc path", in.Pred)
}

// lowerCmpValue materializes a comparison as a 0/1 register value.
func (s *isel) lowerCmpValue(in *ir.Instr) error {
	dst := s.f.NewVReg(mach.ClassGPR)
	if in.Op == ir.OpFCmp && (in.Pred == ir.PredOEQ || in.Pred == ir.PredONE) {
		// oeq = e && np; one = ne && np (both false on NaN).
		lhs, err := s.valueReg(in.Operands[0])
		if err != nil {
			return err
		}
		rhs, err := s.valueReg(in.Operands[1])
		if err != nil {
			return err
		}
		op := mach.OUcomisd
		if opSize(in.Operands[0].Type()) == 4 {
			op = mach.OUcomiss
		}
		s.emit(&mach.Inst{Op: op, Sz: opSize(in.Operands[0].Type()), Src: mach.RegOp(rhs), Dst: mach.RegOp(lhs)})
		cc := mach.CondE
		if in.Pred == ir.PredONE {
			cc = mach.CondNE
		}
		t := s.f.NewVReg(mach.ClassGPR)
		s.emit(&mach.Inst{Op: mach.OSet, Cond: cc, Dst: mach.RegOp(t)})
		s.emit(&mach.Inst{Op: mach.OSet, Cond: mach.CondNP, Dst: mach.RegOp(dst)})
		s.emit(&mach.Inst{Op: mach.OAnd, Sz: 1, Src: mach.RegOp(t), Dst: mach.RegOp(dst)})
		s.emit(&mach.Inst{Op: mach.OMovzx, Sz: 4, SrcSz: 1, Src: mach.RegOp(dst), Dst: mach.RegOp(dst)})
		s.vreg[in] = dst
		return nil
	}
	cc, err := s.emitCompare(in)
	if err != nil {
		return err
	}
	s.emit(&mach.Inst{Op: mach.OSet, Cond: cc, Dst: mach.RegOp(dst)})
	s.emit(&mach.Inst{Op: mach.OMovzx, Sz: 4, SrcSz: 1, Src: mach.RegOp(dst), Dst: mach.RegOp(dst)})
	s.vreg[in] = dst
	return nil
}

func (s *isel) lowerCondBr(in *ir.Instr) error {
	if err := s.lowerPhiCopies(in); err != nil {
		return err
	}
	trueIdx := s.blockIdx[in.Blocks[0]]
	falseIdx := s.blockIdx[in.Blocks[1]]
	next := s.fallthroughOf(in.Parent)

	var cc mach.Cond
	cond := in.Operands[0]
	if ci, ok := cond.(*ir.Instr); ok && s.foldedCmp[ci] {
		var err error
		cc, err = s.emitCompare(ci)
		if err != nil {
			return err
		}
	} else {
		r, err := s.valueReg(cond)
		if err != nil {
			return err
		}
		s.emit(&mach.Inst{Op: mach.OTest, Sz: 1, Src: mach.RegOp(r), Dst: mach.RegOp(r)})
		cc = mach.CondNE
	}

	switch {
	case falseIdx == next:
		s.emit(&mach.Inst{Op: mach.OJcc, Cond: cc, Target: trueIdx})
	case trueIdx == next:
		s.emit(&mach.Inst{Op: mach.OJcc, Cond: cc ^ 1, Target: falseIdx})
	default:
		s.emit(&mach.Inst{Op: mach.OJcc, Cond: cc, Target: trueIdx})
		s.emit(&mach.Inst{Op: mach.OJmp, Target: falseIdx})
	}
	return nil
}

func (s *isel) lowerLoad(in *ir.Instr) error {
	a, err := s.addrOf(in.Operands[0])
	if err != nil {
		return err
	}
	mem := a.operand()
	if isFloat(in.Typ) {
		dst := s.f.NewVReg(mach.ClassXMM)
		op := mach.OMovsd
		if opSize(in.Typ) == 4 {
			op = mach.OMovss
		}
		s.emit(&mach.Inst{Op: op, Sz: opSize(in.Typ), Src: mem, Dst: mach.RegOp(dst)})
		s.vreg[in] = dst
		return nil
	}
	dst := s.f.NewVReg(mach.ClassGPR)
	switch sz := opSize(in.Typ); sz {
	case 1, 2:
		s.emit(&mach.Inst{Op: mach.OMovzx, Sz: 4, SrcSz: sz, Src: mem, Dst: mach.RegOp(dst)})
	default:
		s.emit(&mach.Inst{Op: mach.OMov, Sz: sz, Src: mem, Dst: mach.RegOp(dst)})
	}
	s.vreg[in] = dst
	return nil
}

func (s *isel) lowerStore(in *ir.Instr) error {
	val, ptr := in.Operands[0], in.Operands[1]
	a, err := s.addrOf(ptr)
	if err != nil {
		return err
	}
	mem := a.operand()
	sz := opSize(val.Type())
	if isFloat(val.Type()) {
		// FP constants store through an integer immediate when the
		// bit pattern allows (gcc's movl $0x…, (mem) idiom).
		if fc, ok := val.(*ir.FloatConst); ok {
			if sz == 4 {
				bits := int64(math.Float32bits(float32(fc.Val)))
				s.emit(&mach.Inst{Op: mach.OMov, Sz: 4, Src: mach.ImmOp(bits), Dst: mem})
				return nil
			}
			bits := int64(math.Float64bits(fc.Val))
			if bits >= math.MinInt32 && bits <= math.MaxInt32 {
				s.emit(&mach.Inst{Op: mach.OMov, Sz: 8, Src: mach.ImmOp(bits), Dst: mem})
				return nil
			}
		}
		r, err := s.valueReg(val)
		if err != nil {
			return err
		}
		op := mach.OMovsd
		if sz == 4 {
			op = mach.OMovss
		}
		s.emit(&mach.Inst{Op: op, Sz: sz, Src: mach.RegOp(r), Dst: mem})
		return nil
	}
	rm, err := s.intRM(val)
	if err != nil {
		return err
	}
	if rm.Kind == mach.KImm && sz == 1 {
		rm.Imm = int64(int8(rm.Imm))
	}
	s.emit(&mach.Inst{Op: mach.OMov, Sz: sz, Src: rm, Dst: mem})
	return nil
}

func (s *isel) lowerCall(in *ir.Instr) error {
	if in.Callee == nil {
		return s.errf("indirect call %s not supported (deliberate encoder gap)", in.Ident())
	}
	intIdx, fpIdx, stackOff := 0, 0, int64(0)
	type stackArg struct {
		off int64
		v   ir.Value
	}
	var stackArgs []stackArg
	for _, arg := range in.Operands {
		fp := isFloat(arg.Type())
		switch {
		case fp && fpIdx < len(fpArgRegs):
			r, err := s.valueReg(arg)
			if err != nil {
				return err
			}
			op := mach.OMovsd
			if opSize(arg.Type()) == 4 {
				op = mach.OMovss
			}
			s.emit(&mach.Inst{Op: op, Sz: opSize(arg.Type()), Src: mach.RegOp(r), Dst: mach.RegOp(fpArgRegs[fpIdx])})
			fpIdx++
		case !fp && intIdx < len(intArgRegs):
			rm, err := s.intRM(arg)
			if err != nil {
				return err
			}
			sz := int8(8)
			// Immediate arguments take the shorter 32-bit mov whenever
			// the zero-extending form produces the right value (always
			// for int-sized args, whose upper halves are dont-cares).
			if rm.Kind == mach.KImm && (rm.Imm >= 0 || opSize(arg.Type()) <= 4) {
				sz = 4
				rm.Imm = int64(uint32(rm.Imm))
			}
			s.emit(&mach.Inst{Op: mach.OMov, Sz: sz, Src: rm, Dst: mach.RegOp(intArgRegs[intIdx])})
			intIdx++
		default:
			stackArgs = append(stackArgs, stackArg{stackOff, arg})
			stackOff += 8
		}
	}
	for _, sa := range stackArgs {
		dst := mach.MemOp(mach.RSP, sa.off)
		if isFloat(sa.v.Type()) {
			r, err := s.valueReg(sa.v)
			if err != nil {
				return err
			}
			op := mach.OMovsd
			if opSize(sa.v.Type()) == 4 {
				op = mach.OMovss
			}
			s.emit(&mach.Inst{Op: op, Sz: opSize(sa.v.Type()), Src: mach.RegOp(r), Dst: dst})
		} else {
			rm, err := s.intRM(sa.v)
			if err != nil {
				return err
			}
			s.emit(&mach.Inst{Op: mach.OMov, Sz: 8, Src: rm, Dst: dst})
		}
	}
	if stackOff > s.f.MaxOutArgs {
		s.f.MaxOutArgs = stackOff
	}
	s.emit(&mach.Inst{Op: mach.OCall, Src: mach.Operand{Kind: mach.KMem, Sym: in.Callee.Name}})
	if _, ok := in.Typ.(ir.VoidType); !ok && len(in.Users()) > 0 {
		if isFloat(in.Typ) {
			dst := s.f.NewVReg(mach.ClassXMM)
			op := mach.OMovsd
			if opSize(in.Typ) == 4 {
				op = mach.OMovss
			}
			s.emit(&mach.Inst{Op: op, Sz: opSize(in.Typ), Src: mach.RegOp(mach.XMM0), Dst: mach.RegOp(dst)})
			s.vreg[in] = dst
		} else {
			dst := s.f.NewVReg(mach.ClassGPR)
			s.emit(&mach.Inst{Op: mach.OMov, Sz: 8, Src: mach.RegOp(mach.RAX), Dst: mach.RegOp(dst)})
			s.vreg[in] = dst
		}
	}
	return nil
}

func (s *isel) lowerCast(in *ir.Instr) error {
	v := in.Operands[0]
	srcT, dstT := v.Type(), in.Typ
	switch in.Op {
	case ir.OpTrunc:
		r, err := s.valueReg(v)
		if err != nil {
			return err
		}
		dst := s.f.NewVReg(mach.ClassGPR)
		s.emit(&mach.Inst{Op: mach.OMov, Sz: gprSize(dstT), Src: mach.RegOp(r), Dst: mach.RegOp(dst)})
		if it, ok := dstT.(ir.IntType); ok && it.Bits == 1 {
			// i1 values must be exactly 0 or 1.
			s.emit(&mach.Inst{Op: mach.OAnd, Sz: 4, Src: mach.ImmOp(1), Dst: mach.RegOp(dst)})
		}
		s.vreg[in] = dst
		return nil
	case ir.OpZExt, ir.OpSExt:
		signed := in.Op == ir.OpSExt
		srcBits := srcT.(ir.IntType).Bits
		r, err := s.valueReg(v)
		if err != nil {
			return err
		}
		dst := s.f.NewVReg(mach.ClassGPR)
		switch {
		case srcBits == 1 && !signed:
			// i1 registers already hold exactly 0 or 1.
			s.emit(&mach.Inst{Op: mach.OMov, Sz: 8, Src: mach.RegOp(r), Dst: mach.RegOp(dst)})
		case srcBits == 1 && signed:
			// 0/1 -> 0/-1 without a neg op: zero, subtract.
			s.emit(&mach.Inst{Op: mach.OXor, Sz: 4, Src: mach.RegOp(dst), Dst: mach.RegOp(dst)})
			s.emit(&mach.Inst{Op: mach.OSub, Sz: gprSize(dstT), Src: mach.RegOp(r), Dst: mach.RegOp(dst)})
		case srcBits <= 16:
			op := mach.OMovzx
			if signed {
				op = mach.OMovsx
			}
			s.emit(&mach.Inst{Op: op, Sz: gprSize(dstT), SrcSz: opSize(srcT), Src: mach.RegOp(r), Dst: mach.RegOp(dst)})
		case srcBits <= 32 && signed:
			s.emit(&mach.Inst{Op: mach.OMovsx, Sz: 8, SrcSz: 4, Src: mach.RegOp(r), Dst: mach.RegOp(dst)})
		default:
			// zext i32->i64: the 32-bit mov zero-extends.
			s.emit(&mach.Inst{Op: mach.OMov, Sz: 4, Src: mach.RegOp(r), Dst: mach.RegOp(dst)})
		}
		s.vreg[in] = dst
		return nil
	case ir.OpPtrToInt, ir.OpIntToPtr:
		r, err := s.valueReg(v)
		if err != nil {
			return err
		}
		dst := s.f.NewVReg(mach.ClassGPR)
		s.emit(&mach.Inst{Op: mach.OMov, Sz: 8, Src: mach.RegOp(r), Dst: mach.RegOp(dst)})
		s.vreg[in] = dst
		return nil
	case ir.OpFPTrunc, ir.OpFPExt:
		r, err := s.valueReg(v)
		if err != nil {
			return err
		}
		dst := s.f.NewVReg(mach.ClassXMM)
		op := mach.OCvtss2sd
		if in.Op == ir.OpFPTrunc {
			op = mach.OCvtsd2ss
		}
		s.emit(&mach.Inst{Op: op, Sz: 8, Src: mach.RegOp(r), Dst: mach.RegOp(dst)})
		s.vreg[in] = dst
		return nil
	case ir.OpFPToSI:
		r, err := s.valueReg(v)
		if err != nil {
			return err
		}
		dst := s.f.NewVReg(mach.ClassGPR)
		op := mach.OCvttsd2si
		if opSize(srcT) == 4 {
			op = mach.OCvttss2si
		}
		s.emit(&mach.Inst{Op: op, Sz: gprSize(dstT), Src: mach.RegOp(r), Dst: mach.RegOp(dst)})
		s.vreg[in] = dst
		return nil
	case ir.OpSIToFP:
		srcOp, err := s.valueReg(v)
		if err != nil {
			return err
		}
		srcSz := gprSize(srcT)
		src := srcOp
		if opSize(srcT) < 4 {
			ext := s.f.NewVReg(mach.ClassGPR)
			s.emit(&mach.Inst{Op: mach.OMovsx, Sz: 4, SrcSz: opSize(srcT), Src: mach.RegOp(srcOp), Dst: mach.RegOp(ext)})
			src = ext
			srcSz = 4
		}
		dst := s.f.NewVReg(mach.ClassXMM)
		op := mach.OCvtsi2sd
		if opSize(dstT) == 4 {
			op = mach.OCvtsi2ss
		}
		s.emit(&mach.Inst{Op: op, SrcSz: srcSz, Src: mach.RegOp(src), Dst: mach.RegOp(dst)})
		s.vreg[in] = dst
		return nil
	case ir.OpBitcast:
		srcFP, dstFP := isFloat(srcT), isFloat(dstT)
		r, err := s.valueReg(v)
		if err != nil {
			return err
		}
		switch {
		case srcFP == dstFP:
			class := mach.ClassGPR
			if dstFP {
				class = mach.ClassXMM
			}
			dst := s.f.NewVReg(class)
			s.copyReg(dst, r, dstT)
			s.vreg[in] = dst
		default:
			op := mach.OMovq
			if opSize(dstT) == 4 || opSize(srcT) == 4 {
				op = mach.OMovd
			}
			class := mach.ClassGPR
			if dstFP {
				class = mach.ClassXMM
			}
			dst := s.f.NewVReg(class)
			s.emit(&mach.Inst{Op: op, Sz: 8, Src: mach.RegOp(r), Dst: mach.RegOp(dst)})
			s.vreg[in] = dst
		}
		return nil
	}
	return s.errf("unsupported cast %s", in.Op)
}

func (s *isel) lowerSelect(in *ir.Instr) error {
	// setCond emits whatever establishes the condition — the folded
	// comparison itself (cmp; cmovcc) or a test of the materialized i1
	// (test; cmovne) — and must run after every operand materialization
	// so no mov lands between the flag-setter and the cmov.
	cc := mach.CondNE
	setCond := func() error {
		if ci, ok := in.Operands[0].(*ir.Instr); ok && s.foldedCmp[ci] {
			var err error
			cc, err = s.emitCompare(ci)
			return err
		}
		cond, err := s.valueReg(in.Operands[0])
		if err != nil {
			return err
		}
		s.emit(&mach.Inst{Op: mach.OTest, Sz: 1, Src: mach.RegOp(cond), Dst: mach.RegOp(cond)})
		return nil
	}
	if isFloat(in.Typ) {
		// Route the FP bits through GPRs so cmov applies.
		tv, err := s.valueReg(in.Operands[1])
		if err != nil {
			return err
		}
		fv, err := s.valueReg(in.Operands[2])
		if err != nil {
			return err
		}
		op := mach.OMovq
		if opSize(in.Typ) == 4 {
			op = mach.OMovd
		}
		gt := s.f.NewVReg(mach.ClassGPR)
		gf := s.f.NewVReg(mach.ClassGPR)
		s.emit(&mach.Inst{Op: op, Sz: 8, Src: mach.RegOp(tv), Dst: mach.RegOp(gt)})
		s.emit(&mach.Inst{Op: op, Sz: 8, Src: mach.RegOp(fv), Dst: mach.RegOp(gf)})
		if err := setCond(); err != nil {
			return err
		}
		s.emit(&mach.Inst{Op: mach.OCmov, Sz: 8, Cond: cc, Src: mach.RegOp(gt), Dst: mach.RegOp(gf)})
		dst := s.f.NewVReg(mach.ClassXMM)
		s.emit(&mach.Inst{Op: op, Sz: 8, Src: mach.RegOp(gf), Dst: mach.RegOp(dst)})
		s.vreg[in] = dst
		return nil
	}
	sz := gprSize(in.Typ)
	if sz < 4 {
		sz = 4
	}
	tv, err := s.valueReg(in.Operands[1])
	if err != nil {
		return err
	}
	fv, err := s.intRM(in.Operands[2])
	if err != nil {
		return err
	}
	dst := s.f.NewVReg(mach.ClassGPR)
	s.emit(&mach.Inst{Op: mach.OMov, Sz: sz, Src: fv, Dst: mach.RegOp(dst)})
	if err := setCond(); err != nil {
		return err
	}
	s.emit(&mach.Inst{Op: mach.OCmov, Sz: sz, Cond: cc, Src: mach.RegOp(tv), Dst: mach.RegOp(dst)})
	s.vreg[in] = dst
	return nil
}
