// Package mach is the machine-level IR the backend lowers SSA into: a
// thin, x86-64-shaped instruction list over virtual and physical
// registers. It deliberately stays close to what the encoder and the
// AT&T printer need and nothing more — no scheduling metadata, no
// target hooks. Instruction selection produces mach code over virtual
// registers, register allocation rewrites it onto physical ones, and
// the frame-finalize pass resolves the two pseudo addressing kinds
// (KFrame, KIncoming) into %rsp-relative memory operands.
package mach

import "fmt"

// Reg names a register. Values 0..15 are the GPRs in encoding order
// (rax..r15), 16..31 the XMM registers, and values >= VRegBase are
// virtual registers handed out by instruction selection.
type Reg int32

const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

const (
	XMM0 Reg = 16 + iota
	XMM1
	XMM2
	XMM3
	XMM4
	XMM5
	XMM6
	XMM7
	XMM8
	XMM9
	XMM10
	XMM11
	XMM12
	XMM13
	XMM14
	XMM15
)

// NoReg marks an absent register (e.g. a memory operand with no index).
const NoReg Reg = -1

// VRegBase is the first virtual register number.
const VRegBase Reg = 64

// IsVirtual reports whether r is a virtual register.
func (r Reg) IsVirtual() bool { return r >= VRegBase }

// IsXMM reports whether a *physical* register is an XMM register.
func (r Reg) IsXMM() bool { return r >= XMM0 && r <= XMM15 }

// Enc returns the 4-bit hardware encoding of a physical register.
func (r Reg) Enc() byte {
	if r.IsVirtual() || r == NoReg {
		panic(fmt.Sprintf("mach: Enc on non-physical register %d", r))
	}
	if r >= XMM0 {
		return byte(r - XMM0)
	}
	return byte(r)
}

// RegClass separates the two register files.
type RegClass uint8

const (
	ClassGPR RegClass = iota
	ClassXMM
)

// Kind discriminates operand shapes.
type Kind uint8

const (
	KNone Kind = iota
	// KReg is a register (physical or virtual).
	KReg
	// KImm is an integer immediate.
	KImm
	// KMem is a memory operand: Sym(%rip) when Sym != "" (Base/Index
	// must be NoReg), else Imm(Base,Index,Scale).
	KMem
	// KFrame addresses a function-local frame slot (alloca or spill)
	// before frame layout: slot Index, byte offset Imm within the slot.
	// Frame finalization rewrites it to an %rsp-relative KMem.
	KFrame
	// KIncoming addresses the Index'th stack-passed argument byte
	// offset (0, 8, 16, ... above the return address). Resolved by
	// frame finalization.
	KIncoming
)

// Operand is one instruction operand.
type Operand struct {
	Kind  Kind
	Reg   Reg    // KReg
	Imm   int64  // KImm; or displacement for KMem/KFrame
	Base  Reg    // KMem base (NoReg for rip-relative)
	Index Reg    // KMem index (NoReg if none); KFrame/KIncoming slot index
	Scale int8   // KMem index scale: 1, 2, 4, 8
	Sym   string // KMem rip-relative symbol
}

// RegOp, ImmOp, MemOp, SymOp, FrameOp, IncomingOp build operands.
func RegOp(r Reg) Operand   { return Operand{Kind: KReg, Reg: r} }
func ImmOp(v int64) Operand { return Operand{Kind: KImm, Imm: v} }
func MemOp(base Reg, disp int64) Operand {
	return Operand{Kind: KMem, Base: base, Index: NoReg, Scale: 1, Imm: disp}
}
func MemIdxOp(base, index Reg, scale int8, disp int64) Operand {
	return Operand{Kind: KMem, Base: base, Index: index, Scale: scale, Imm: disp}
}

// SymOp is a rip-relative reference to a global symbol (+disp).
func SymOp(sym string, disp int64) Operand {
	return Operand{Kind: KMem, Base: NoReg, Index: NoReg, Sym: sym, Imm: disp}
}
func FrameOp(slot int, off int64) Operand {
	return Operand{Kind: KFrame, Base: NoReg, Index: Reg(slot), Imm: off}
}
func IncomingOp(i int) Operand {
	return Operand{Kind: KIncoming, Base: NoReg, Index: Reg(i)}
}

// Op is the instruction opcode. The set covers exactly what lowering
// of the mini-C SSA subset emits; the encoder and printer must handle
// every listed op, nothing else.
type Op uint8

const (
	ONop Op = iota

	// Integer moves and address arithmetic.
	OMov    // mov Src, Dst (rr, ri, load, store, mi)
	OMovAbs // movabs $imm64, r64
	OLea    // lea mem, r64

	// Two-address integer ALU: op Src, Dst (Dst read+written).
	OAdd
	OSub
	OAnd
	OOr
	OXor
	OImul // imul r/imm, r  (imm form uses the 69/6B three-operand encoding with dst==src1)
	OShl  // shift count: imm or %cl
	OShr
	OSar

	// Compares (no destination write).
	OCmp  // cmp Src, Dst-as-second-operand  (AT&T: cmp src, dst → flags from dst-src)
	OTest // test Src, Dst

	// Widening moves. SrcSz is the source width, Sz the destination.
	OMovzx
	OMovsx

	// Sign-extend rax into rdx:rax (cdq when Sz==4, cqo when Sz==8).
	OCwd
	OIdiv // signed divide rdx:rax by Src
	ODiv  // unsigned divide rdx:rax by Src

	OSet  // setcc Dst (byte register)
	OCmov // cmovcc Src, Dst (Sz >= 4)

	// Control flow. Target is a block index within the function;
	// OCall's callee is Src.Sym.
	OJmp
	OJcc
	OCall
	ORet

	OPush // push r64
	OPop  // pop r64

	// SSE scalar float. OMovss/OMovsd move xmm<->xmm/mem; the integer
	//<->xmm transfer ops OMovd/OMovq pick direction from which operand
	// is the XMM register.
	OMovss
	OMovsd
	OAddss
	OAddsd
	OSubss
	OSubsd
	OMulss
	OMulsd
	ODivss
	ODivsd
	OUcomiss
	OUcomisd
	OXorps // xorps x, x — used only as the zeroing idiom
	OMovd  // 32-bit gpr<->xmm
	OMovq  // 64-bit gpr<->xmm

	// Conversions. SrcSz/Sz give the integer width where relevant.
	OCvtss2sd
	OCvtsd2ss
	OCvtsi2ss  // int(SrcSz) -> f32
	OCvtsi2sd  // int(SrcSz) -> f64
	OCvttss2si // f32 -> int(Sz)
	OCvttsd2si // f64 -> int(Sz)
)

// Cond is a condition code (the low nibble of the 0F 8x / 0F 9x
// opcode families).
type Cond uint8

const (
	CondO  Cond = 0x0
	CondNO Cond = 0x1
	CondB  Cond = 0x2 // unsigned <
	CondAE Cond = 0x3 // unsigned >=
	CondE  Cond = 0x4
	CondNE Cond = 0x5
	CondBE Cond = 0x6 // unsigned <=
	CondA  Cond = 0x7 // unsigned >
	CondS  Cond = 0x8
	CondNS Cond = 0x9
	CondP  Cond = 0xA
	CondNP Cond = 0xB
	CondL  Cond = 0xC // signed <
	CondGE Cond = 0xD // signed >=
	CondLE Cond = 0xE // signed <=
	CondG  Cond = 0xF // signed >
)

var condNames = [16]string{
	"o", "no", "b", "ae", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

// Name returns the AT&T mnemonic suffix ("ne", "l", ...).
func (c Cond) Name() string { return condNames[c&0xF] }

// Inst is one machine instruction. AT&T operand order: Src then Dst.
type Inst struct {
	Op     Op
	Sz     int8 // main operand width in bytes: 1, 2, 4, 8
	SrcSz  int8 // source width for movzx/movsx/cvtsi2*/cvtt*2si
	Src    Operand
	Dst    Operand
	Cond   Cond // OJcc, OSet, OCmov
	Target int  // OJmp/OJcc destination block index
}

// Block is a label plus a straight run of instructions.
type Block struct {
	Name  string
	Insts []*Inst
}

// AllocaSlot describes one static stack allocation.
type AllocaSlot struct {
	Size  int64
	Align int64
}

// Func is one lowered function.
type Func struct {
	Name   string
	Blocks []*Block

	// NumVRegs counts virtual registers handed out; VRegClass[i] is
	// the class of register VRegBase+i.
	NumVRegs  int
	VRegClass []RegClass

	// AllocaSlots are the function's static allocas; KFrame operands
	// index into this table. Register allocation appends spill slots.
	AllocaSlots []AllocaSlot

	// MaxOutArgs is the byte size of the outgoing stack-argument area
	// (calls with more than the register-passed arguments).
	MaxOutArgs int64

	// FrameSize and SavedRegs are filled by frame finalization:
	// FrameSize is the `sub $n, %rsp` amount, SavedRegs the pushed
	// callee-saved registers in push order.
	FrameSize int64
	SavedRegs []Reg
}

// NewVReg allocates a fresh virtual register of the given class.
func (f *Func) NewVReg(c RegClass) Reg {
	r := VRegBase + Reg(f.NumVRegs)
	f.NumVRegs++
	f.VRegClass = append(f.VRegClass, c)
	return r
}

// Class returns the register class of r (physical or virtual).
func (f *Func) Class(r Reg) RegClass {
	if r.IsVirtual() {
		return f.VRegClass[r-VRegBase]
	}
	if r.IsXMM() {
		return ClassXMM
	}
	return ClassGPR
}

// RodataSym is one read-only data symbol: either a copied IR global
// or a float literal pool entry. Its contents are Data followed by Zero
// zero bytes; the zero tail is never materialized.
type RodataSym struct {
	Name  string
	Align int64
	Data  []byte
	Zero  int64
}

// Module is a set of lowered functions plus their .rodata section.
type Module struct {
	Name   string
	Funcs  []*Func
	Rodata []RodataSym
}

// RodataSize returns the total byte size of the .rodata section with
// each symbol aligned to its declared alignment, mirroring exactly how
// the printer and encoder lay the section out.
func (m *Module) RodataSize() int64 {
	var off int64
	for _, s := range m.Rodata {
		off = alignUp(off, s.Align)
		off += int64(len(s.Data)) + s.Zero
	}
	return off
}

func alignUp(n, a int64) int64 {
	if a <= 1 {
		return n
	}
	return (n + a - 1) &^ (a - 1)
}
