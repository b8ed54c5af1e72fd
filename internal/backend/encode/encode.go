// Package encode turns mach instructions into x86-64 machine code and
// is the repo's size oracle: the byte counts every experiment reports
// come from here. It covers exactly the instruction shapes the
// instruction selector emits (see internal/backend); anything else is
// a hard error, never a silent guess. Branches are relaxed to rel8
// where the displacement fits, matching what GNU as produces for the
// same assembly, so encoder lengths can be cross-checked against a
// system assembler when one is present.
package encode

import (
	"fmt"

	"rolag/internal/backend/mach"
)

// errf wraps an encoding failure with the offending instruction's op.
func errf(in *mach.Inst, format string, args ...any) error {
	return fmt.Errorf("encode: op %d: %s", in.Op, fmt.Sprintf(format, args...))
}

// asm is a byte buffer for one instruction.
type asm struct {
	b []byte
}

func (a *asm) byte(v ...byte) { a.b = append(a.b, v...) }
func (a *asm) imm8(v int64)   { a.b = append(a.b, byte(v)) }
func (a *asm) imm16(v int64)  { a.b = append(a.b, byte(v), byte(v>>8)) }
func (a *asm) imm32(v int64)  { a.b = append(a.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (a *asm) imm64(v int64) {
	a.imm32(v)
	a.imm32(v >> 32)
}

func fitsInt8(v int64) bool  { return v >= -128 && v <= 127 }
func fitsInt32(v int64) bool { return v >= -1<<31 && v <= 1<<31-1 }

// rmArgs carries everything the ModRM emitter needs.
type rmArgs struct {
	legacy []byte       // F3/F2/66 mandatory prefixes (before REX)
	op     []byte       // opcode bytes (0F escapes included)
	reg    byte         // 4-bit reg field (register number or /digit extension)
	rm     mach.Operand // KReg or KMem
	w      bool         // REX.W
	sz66   bool         // 0x66 operand-size prefix (16-bit integer ops)
	// forceRex: byte-register operands with encodings 4-7 (spl, bpl,
	// sil, dil) need an empty REX prefix to mean the low byte.
	forceRex bool
}

// modrm emits prefix+opcode+ModRM(+SIB)(+disp) for one rm-form
// instruction. Immediates are appended by the caller.
func (a *asm) modrm(in *mach.Inst, g rmArgs) error {
	if g.sz66 {
		a.byte(0x66)
	}
	a.byte(g.legacy...)

	rex := byte(0)
	if g.w {
		rex |= 0x48
	}
	if g.reg >= 8 {
		rex |= 0x44 // REX.R
	}

	var modrmByte byte
	var sib []byte
	var disp []byte

	regField := (g.reg & 7) << 3

	switch g.rm.Kind {
	case mach.KReg:
		enc := g.rm.Reg.Enc()
		if enc >= 8 {
			rex |= 0x41 // REX.B
		}
		modrmByte = 0xC0 | regField | (enc & 7)
	case mach.KMem:
		if g.rm.Sym != "" {
			// RIP-relative: mod=00, rm=101, disp32. The displacement
			// is a relocation in a real object file; its length is
			// what matters here, so emit the addend.
			modrmByte = 0x00 | regField | 0x05
			disp = []byte{byte(g.rm.Imm), byte(g.rm.Imm >> 8), byte(g.rm.Imm >> 16), byte(g.rm.Imm >> 24)}
			break
		}
		base := g.rm.Base
		index := g.rm.Index
		if base == mach.NoReg {
			return errf(in, "memory operand without base or symbol")
		}
		if index == mach.RSP {
			return errf(in, "rsp cannot be an index register")
		}
		baseEnc := base.Enc()
		if baseEnc >= 8 {
			rex |= 0x41 // REX.B
		}
		needSIB := index != mach.NoReg || baseEnc&7 == 4 // rsp/r12 base forces SIB
		d := g.rm.Imm
		var mod byte
		switch {
		case d == 0 && baseEnc&7 != 5: // rbp/r13 base always needs a disp
			mod = 0x00
		case fitsInt8(d):
			mod = 0x40
			disp = []byte{byte(d)}
		default:
			if !fitsInt32(d) {
				return errf(in, "displacement %d does not fit in 32 bits", d)
			}
			mod = 0x80
			disp = []byte{byte(d), byte(d >> 8), byte(d >> 16), byte(d >> 24)}
		}
		if needSIB {
			var scaleBits byte
			idxEnc := byte(4) // none
			if index != mach.NoReg {
				ie := index.Enc()
				if ie >= 8 {
					rex |= 0x42 // REX.X
				}
				idxEnc = ie & 7
				switch g.rm.Scale {
				case 1:
					scaleBits = 0
				case 2:
					scaleBits = 1 << 6
				case 4:
					scaleBits = 2 << 6
				case 8:
					scaleBits = 3 << 6
				default:
					return errf(in, "bad scale %d", g.rm.Scale)
				}
			}
			modrmByte = mod | regField | 0x04
			sib = []byte{scaleBits | idxEnc<<3 | (baseEnc & 7)}
		} else {
			modrmByte = mod | regField | (baseEnc & 7)
		}
	default:
		return errf(in, "bad rm operand kind %d", g.rm.Kind)
	}

	if rex != 0 {
		rex |= 0x40
	} else if g.forceRex {
		rex = 0x40
	}
	if rex != 0 {
		a.byte(rex)
	}
	a.byte(g.op...)
	a.byte(modrmByte)
	a.byte(sib...)
	a.byte(disp...)
	return nil
}

// byteRegNeedsRex reports whether using r as a byte register requires
// a REX prefix (spl/bpl/sil/dil).
func byteRegNeedsRex(o mach.Operand) bool {
	if o.Kind != mach.KReg {
		return false
	}
	e := o.Reg.Enc()
	return o.Reg < mach.XMM0 && e >= 4 && e <= 7
}

// aluSpec describes one two-address integer ALU op family.
type aluSpec struct {
	storeOp byte // op r, r/m
	loadOp  byte // op r/m, r
	immExt  byte // /digit for the 80/81/83 immediate group
}

var aluSpecs = map[mach.Op]aluSpec{
	mach.OAdd: {0x01, 0x03, 0},
	mach.OOr:  {0x09, 0x0B, 1},
	mach.OAnd: {0x21, 0x23, 4},
	mach.OSub: {0x29, 0x2B, 5},
	mach.OXor: {0x31, 0x33, 6},
	mach.OCmp: {0x39, 0x3B, 7},
}

// Inst encodes one non-control-flow instruction (everything except
// OJmp/OJcc, which need layout context for their displacements).
func Inst(in *mach.Inst) ([]byte, error) {
	a := &asm{}
	err := encodeInto(a, in)
	if err != nil {
		return nil, err
	}
	return a.b, nil
}

func intOpPrefix(sz int8) (w bool, sz66 bool) {
	return sz == 8, sz == 2
}

func encodeInto(a *asm, in *mach.Inst) error {
	switch in.Op {
	case mach.ONop:
		a.byte(0x90)
		return nil

	case mach.OMov:
		return encodeMov(a, in)

	case mach.OMovAbs:
		if in.Dst.Kind != mach.KReg {
			return errf(in, "movabs needs a register destination")
		}
		enc := in.Dst.Reg.Enc()
		rex := byte(0x48)
		if enc >= 8 {
			rex |= 1
		}
		a.byte(rex, 0xB8+(enc&7))
		a.imm64(in.Src.Imm)
		return nil

	case mach.OLea:
		if in.Src.Kind != mach.KMem || in.Dst.Kind != mach.KReg {
			return errf(in, "lea needs mem source and register destination")
		}
		return a.modrm(in, rmArgs{op: []byte{0x8D}, reg: in.Dst.Reg.Enc(), rm: in.Src, w: true})

	case mach.OAdd, mach.OSub, mach.OAnd, mach.OOr, mach.OXor, mach.OCmp:
		return encodeALU(a, in, aluSpecs[in.Op])

	case mach.OImul:
		w, sz66 := intOpPrefix(in.Sz)
		if in.Src.Kind == mach.KImm {
			// imul $imm, rm, r with rm == r (two-address form).
			op := byte(0x69)
			if fitsInt8(in.Src.Imm) {
				op = 0x6B
			}
			if err := a.modrm(in, rmArgs{op: []byte{op}, reg: in.Dst.Reg.Enc(), rm: in.Dst, w: w, sz66: sz66}); err != nil {
				return err
			}
			if op == 0x6B {
				a.imm8(in.Src.Imm)
			} else if in.Sz == 2 {
				a.imm16(in.Src.Imm)
			} else {
				a.imm32(in.Src.Imm)
			}
			return nil
		}
		return a.modrm(in, rmArgs{op: []byte{0x0F, 0xAF}, reg: in.Dst.Reg.Enc(), rm: in.Src, w: w, sz66: sz66})

	case mach.OShl, mach.OShr, mach.OSar:
		ext := map[mach.Op]byte{mach.OShl: 4, mach.OShr: 5, mach.OSar: 7}[in.Op]
		w, sz66 := intOpPrefix(in.Sz)
		byteOp := in.Sz == 1
		if in.Src.Kind == mach.KImm {
			if in.Src.Imm == 1 {
				// Shift-by-one short form (what gas emits for $1).
				op := byte(0xD1)
				if byteOp {
					op = 0xD0
				}
				return a.modrm(in, rmArgs{op: []byte{op}, reg: ext, rm: in.Dst, w: w, sz66: sz66, forceRex: byteOp && byteRegNeedsRex(in.Dst)})
			}
			op := byte(0xC1)
			if byteOp {
				op = 0xC0
			}
			if err := a.modrm(in, rmArgs{op: []byte{op}, reg: ext, rm: in.Dst, w: w, sz66: sz66, forceRex: byteOp && byteRegNeedsRex(in.Dst)}); err != nil {
				return err
			}
			a.imm8(in.Src.Imm)
			return nil
		}
		// Count in %cl.
		op := byte(0xD3)
		if byteOp {
			op = 0xD2
		}
		return a.modrm(in, rmArgs{op: []byte{op}, reg: ext, rm: in.Dst, w: w, sz66: sz66, forceRex: byteOp && byteRegNeedsRex(in.Dst)})

	case mach.OTest:
		w, sz66 := intOpPrefix(in.Sz)
		op := byte(0x85)
		forceRex := false
		if in.Sz == 1 {
			op = 0x84
			forceRex = byteRegNeedsRex(in.Src) || byteRegNeedsRex(in.Dst)
		}
		if in.Src.Kind != mach.KReg {
			return errf(in, "test needs a register source")
		}
		return a.modrm(in, rmArgs{op: []byte{op}, reg: in.Src.Reg.Enc(), rm: in.Dst, w: w, sz66: sz66, forceRex: forceRex})

	case mach.OMovzx, mach.OMovsx:
		return encodeExt(a, in)

	case mach.OCwd:
		if in.Sz == 8 {
			a.byte(0x48, 0x99)
		} else {
			a.byte(0x99)
		}
		return nil

	case mach.OIdiv, mach.ODiv:
		ext := byte(7)
		if in.Op == mach.ODiv {
			ext = 6
		}
		w, sz66 := intOpPrefix(in.Sz)
		return a.modrm(in, rmArgs{op: []byte{0xF7}, reg: ext, rm: in.Src, w: w, sz66: sz66})

	case mach.OSet:
		return a.modrm(in, rmArgs{op: []byte{0x0F, 0x90 + byte(in.Cond)}, reg: 0, rm: in.Dst, forceRex: byteRegNeedsRex(in.Dst)})

	case mach.OCmov:
		w, sz66 := intOpPrefix(in.Sz)
		return a.modrm(in, rmArgs{op: []byte{0x0F, 0x40 + byte(in.Cond)}, reg: in.Dst.Reg.Enc(), rm: in.Src, w: w, sz66: sz66})

	case mach.OCall:
		// call rel32 — the target is an external symbol (relocation);
		// length is fixed at 5 bytes either way.
		a.byte(0xE8)
		a.imm32(0)
		return nil

	case mach.ORet:
		a.byte(0xC3)
		return nil

	case mach.OPush, mach.OPop:
		o := in.Src
		base := byte(0x50)
		if in.Op == mach.OPop {
			o = in.Dst
			base = 0x58
		}
		if o.Kind != mach.KReg {
			return errf(in, "push/pop needs a register")
		}
		enc := o.Reg.Enc()
		if enc >= 8 {
			a.byte(0x41)
		}
		a.byte(base + (enc & 7))
		return nil

	case mach.OMovss, mach.OMovsd:
		pfx := byte(0xF3)
		if in.Op == mach.OMovsd {
			pfx = 0xF2
		}
		if in.Dst.Kind == mach.KReg { // load or reg-reg: 0F 10
			return a.modrm(in, rmArgs{legacy: []byte{pfx}, op: []byte{0x0F, 0x10}, reg: in.Dst.Reg.Enc(), rm: in.Src})
		}
		// store: 0F 11
		if in.Src.Kind != mach.KReg {
			return errf(in, "movss/movsd store needs a register source")
		}
		return a.modrm(in, rmArgs{legacy: []byte{pfx}, op: []byte{0x0F, 0x11}, reg: in.Src.Reg.Enc(), rm: in.Dst})

	case mach.OAddss, mach.OAddsd, mach.OSubss, mach.OSubsd,
		mach.OMulss, mach.OMulsd, mach.ODivss, mach.ODivsd:
		type fpSpec struct {
			pfx byte
			op  byte
		}
		spec := map[mach.Op]fpSpec{
			mach.OAddss: {0xF3, 0x58}, mach.OAddsd: {0xF2, 0x58},
			mach.OSubss: {0xF3, 0x5C}, mach.OSubsd: {0xF2, 0x5C},
			mach.OMulss: {0xF3, 0x59}, mach.OMulsd: {0xF2, 0x59},
			mach.ODivss: {0xF3, 0x5E}, mach.ODivsd: {0xF2, 0x5E},
		}[in.Op]
		return a.modrm(in, rmArgs{legacy: []byte{spec.pfx}, op: []byte{0x0F, spec.op}, reg: in.Dst.Reg.Enc(), rm: in.Src})

	case mach.OUcomiss:
		return a.modrm(in, rmArgs{op: []byte{0x0F, 0x2E}, reg: in.Dst.Reg.Enc(), rm: in.Src})
	case mach.OUcomisd:
		return a.modrm(in, rmArgs{legacy: []byte{0x66}, op: []byte{0x0F, 0x2E}, reg: in.Dst.Reg.Enc(), rm: in.Src})
	case mach.OXorps:
		return a.modrm(in, rmArgs{op: []byte{0x0F, 0x57}, reg: in.Dst.Reg.Enc(), rm: in.Src})

	case mach.OMovd, mach.OMovq:
		w := in.Op == mach.OMovq
		// Direction from which side is the XMM register: 6E loads
		// gpr->xmm (reg=xmm, rm=gpr), 7E stores xmm->gpr.
		if in.Dst.Kind == mach.KReg && in.Dst.Reg.IsXMM() {
			return a.modrm(in, rmArgs{legacy: []byte{0x66}, op: []byte{0x0F, 0x6E}, reg: in.Dst.Reg.Enc(), rm: in.Src, w: w})
		}
		if in.Src.Kind == mach.KReg && in.Src.Reg.IsXMM() {
			return a.modrm(in, rmArgs{legacy: []byte{0x66}, op: []byte{0x0F, 0x7E}, reg: in.Src.Reg.Enc(), rm: in.Dst, w: w})
		}
		return errf(in, "movd/movq needs an xmm register on one side")

	case mach.OCvtss2sd:
		return a.modrm(in, rmArgs{legacy: []byte{0xF3}, op: []byte{0x0F, 0x5A}, reg: in.Dst.Reg.Enc(), rm: in.Src})
	case mach.OCvtsd2ss:
		return a.modrm(in, rmArgs{legacy: []byte{0xF2}, op: []byte{0x0F, 0x5A}, reg: in.Dst.Reg.Enc(), rm: in.Src})
	case mach.OCvtsi2ss:
		return a.modrm(in, rmArgs{legacy: []byte{0xF3}, op: []byte{0x0F, 0x2A}, reg: in.Dst.Reg.Enc(), rm: in.Src, w: in.SrcSz == 8})
	case mach.OCvtsi2sd:
		return a.modrm(in, rmArgs{legacy: []byte{0xF2}, op: []byte{0x0F, 0x2A}, reg: in.Dst.Reg.Enc(), rm: in.Src, w: in.SrcSz == 8})
	case mach.OCvttss2si:
		return a.modrm(in, rmArgs{legacy: []byte{0xF3}, op: []byte{0x0F, 0x2C}, reg: in.Dst.Reg.Enc(), rm: in.Src, w: in.Sz == 8})
	case mach.OCvttsd2si:
		return a.modrm(in, rmArgs{legacy: []byte{0xF2}, op: []byte{0x0F, 0x2C}, reg: in.Dst.Reg.Enc(), rm: in.Src, w: in.Sz == 8})
	}
	return errf(in, "unsupported opcode")
}

func encodeALU(a *asm, in *mach.Inst, spec aluSpec) error {
	w, sz66 := intOpPrefix(in.Sz)
	byteOp := in.Sz == 1
	adj := func(op byte) byte {
		if byteOp {
			return op - 1 // word opcodes are byte opcode + 1 in this family
		}
		return op
	}
	switch {
	case in.Src.Kind == mach.KImm:
		var op byte
		imm8 := fitsInt8(in.Src.Imm)
		// Accumulator short forms (04/05-family), which gas prefers
		// whenever they are no longer than the ModRM encoding: byte
		// ops on %al, and wider ops whose immediate needs 16/32 bits.
		if in.Dst.Kind == mach.KReg && in.Dst.Reg == mach.RAX && (byteOp || !imm8) {
			if sz66 {
				a.byte(0x66)
			}
			if w {
				a.byte(0x48)
			}
			if byteOp {
				a.byte(spec.storeOp + 3)
				a.imm8(in.Src.Imm)
			} else {
				a.byte(spec.storeOp + 4)
				if in.Sz == 2 {
					a.imm16(in.Src.Imm)
				} else {
					if !fitsInt32(in.Src.Imm) {
						return errf(in, "ALU immediate %d does not fit in 32 bits", in.Src.Imm)
					}
					a.imm32(in.Src.Imm)
				}
			}
			return nil
		}
		switch {
		case byteOp:
			op = 0x80
		case imm8:
			op = 0x83
		default:
			op = 0x81
		}
		forceRex := byteOp && byteRegNeedsRex(in.Dst)
		if err := a.modrm(in, rmArgs{op: []byte{op}, reg: spec.immExt, rm: in.Dst, w: w, sz66: sz66, forceRex: forceRex}); err != nil {
			return err
		}
		switch {
		case byteOp || op == 0x83:
			a.imm8(in.Src.Imm)
		case in.Sz == 2:
			a.imm16(in.Src.Imm)
		default:
			if !fitsInt32(in.Src.Imm) {
				return errf(in, "ALU immediate %d does not fit in 32 bits", in.Src.Imm)
			}
			a.imm32(in.Src.Imm)
		}
		return nil
	case in.Src.Kind == mach.KReg && (in.Dst.Kind == mach.KReg || in.Dst.Kind == mach.KMem):
		forceRex := byteOp && (byteRegNeedsRex(in.Src) || byteRegNeedsRex(in.Dst))
		return a.modrm(in, rmArgs{op: []byte{adj(spec.storeOp)}, reg: in.Src.Reg.Enc(), rm: in.Dst, w: w, sz66: sz66, forceRex: forceRex})
	case in.Src.Kind == mach.KMem && in.Dst.Kind == mach.KReg:
		forceRex := byteOp && byteRegNeedsRex(in.Dst)
		return a.modrm(in, rmArgs{op: []byte{adj(spec.loadOp)}, reg: in.Dst.Reg.Enc(), rm: in.Src, w: w, sz66: sz66, forceRex: forceRex})
	}
	return errf(in, "unsupported ALU operand shapes")
}

func encodeMov(a *asm, in *mach.Inst) error {
	w, sz66 := intOpPrefix(in.Sz)
	byteOp := in.Sz == 1
	switch {
	case in.Src.Kind == mach.KImm && in.Dst.Kind == mach.KReg:
		enc := in.Dst.Reg.Enc()
		switch {
		case in.Sz == 8:
			// mov $imm32s, r64 → C7 /0 id (gas picks this over movabs
			// whenever the immediate sign-extends).
			if !fitsInt32(in.Src.Imm) {
				return errf(in, "64-bit mov immediate %d needs movabs", in.Src.Imm)
			}
			if err := a.modrm(in, rmArgs{op: []byte{0xC7}, reg: 0, rm: in.Dst, w: true}); err != nil {
				return err
			}
			a.imm32(in.Src.Imm)
		case in.Sz == 4:
			if enc >= 8 {
				a.byte(0x41)
			}
			a.byte(0xB8 + (enc & 7))
			a.imm32(in.Src.Imm)
		case in.Sz == 2:
			a.byte(0x66)
			if enc >= 8 {
				a.byte(0x41)
			}
			a.byte(0xB8 + (enc & 7))
			a.imm16(in.Src.Imm)
		default:
			if byteRegNeedsRex(in.Dst) {
				a.byte(0x40)
			} else if enc >= 8 {
				a.byte(0x41)
			}
			a.byte(0xB0 + (enc & 7))
			a.imm8(in.Src.Imm)
		}
		return nil
	case in.Src.Kind == mach.KImm && in.Dst.Kind == mach.KMem:
		op := byte(0xC7)
		if byteOp {
			op = 0xC6
		}
		if err := a.modrm(in, rmArgs{op: []byte{op}, reg: 0, rm: in.Dst, w: w, sz66: sz66}); err != nil {
			return err
		}
		switch {
		case byteOp:
			a.imm8(in.Src.Imm)
		case in.Sz == 2:
			a.imm16(in.Src.Imm)
		default:
			if !fitsInt32(in.Src.Imm) {
				return errf(in, "store immediate %d does not fit in 32 bits", in.Src.Imm)
			}
			a.imm32(in.Src.Imm)
		}
		return nil
	case in.Src.Kind == mach.KReg && (in.Dst.Kind == mach.KReg || in.Dst.Kind == mach.KMem):
		op := byte(0x89)
		if byteOp {
			op = 0x88
		}
		forceRex := byteOp && (byteRegNeedsRex(in.Src) || byteRegNeedsRex(in.Dst))
		return a.modrm(in, rmArgs{op: []byte{op}, reg: in.Src.Reg.Enc(), rm: in.Dst, w: w, sz66: sz66, forceRex: forceRex})
	case in.Src.Kind == mach.KMem && in.Dst.Kind == mach.KReg:
		op := byte(0x8B)
		if byteOp {
			op = 0x8A
		}
		forceRex := byteOp && byteRegNeedsRex(in.Dst)
		return a.modrm(in, rmArgs{op: []byte{op}, reg: in.Dst.Reg.Enc(), rm: in.Src, w: w, sz66: sz66, forceRex: forceRex})
	}
	return errf(in, "unsupported mov operand shapes")
}

func encodeExt(a *asm, in *mach.Inst) error {
	signed := in.Op == mach.OMovsx
	if in.Dst.Kind != mach.KReg {
		return errf(in, "movzx/movsx needs a register destination")
	}
	w := in.Sz == 8
	sz66 := in.Sz == 2
	var op []byte
	switch {
	case in.SrcSz == 1 && signed:
		op = []byte{0x0F, 0xBE}
	case in.SrcSz == 1:
		op = []byte{0x0F, 0xB6}
	case in.SrcSz == 2 && signed:
		op = []byte{0x0F, 0xBF}
	case in.SrcSz == 2:
		op = []byte{0x0F, 0xB7}
	case in.SrcSz == 4 && signed:
		op = []byte{0x63} // movslq
	default:
		return errf(in, "unsupported extension %d -> %d", in.SrcSz, in.Sz)
	}
	forceRex := in.SrcSz == 1 && byteRegNeedsRex(in.Src)
	return a.modrm(in, rmArgs{op: op, reg: in.Dst.Reg.Enc(), rm: in.Src, w: w, sz66: sz66, forceRex: forceRex})
}
