// Package costmodel estimates the code size, in bytes, of IR
// instructions when lowered to an x86-64 target compiled at -Os. It
// stands in for LLVM's target-transformation-interface (TTI) code-size
// cost model, which the paper's profitability analysis queries (§IV.F).
//
// The estimates are calibrated against typical instruction encodings:
// simple register-register ALU ops are ~3 bytes, memory operands add a
// ModRM/SIB/displacement (~1-4 bytes), calls are 5 bytes, divisions
// expand to several instructions, and so on. Absolute accuracy is not
// required — the paper itself notes the model only approximates the
// lowered size — but relative ordering must be sensible, because the
// roll/no-roll decision compares the two versions' estimates.
package costmodel

import "rolag/internal/ir"

// Instruction sizes shared by both calibrations.
const (
	// callBytes is the size of a direct call instruction.
	callBytes = 5
	// branchBytes is the size of an unconditional branch.
	branchBytes = 2
	// condBranchBytes is the size of a compare-and-branch pair's branch
	// part (the compare is costed separately via the icmp).
	condBranchBytes = 2
)

// Model is a code-size cost model. The zero value is the default x86-64
// -Os flavoured model.
type Model struct {
	// BinaryMode selects the finer "measurement" calibration used when
	// reporting final object sizes: phis cost edge copies, branch
	// targets get alignment padding, dynamic allocas cost frame setup,
	// and geps only fold into a memory access when they have a single
	// user. The profitability analysis uses the plain (TTI-style) model;
	// the deliberate gap between the two reproduces the paper's
	// observation that IR-level estimates are not a direct mapping to
	// the lowered binary, which is what causes its occasional
	// code-growth false positives (§V.A).
	BinaryMode bool
}

// Default returns the default (TTI-style, profitability) model.
func Default() *Model {
	return &Model{}
}

// Binary returns the measurement model used to report final "object
// file" sizes.
func Binary() *Model {
	return &Model{BinaryMode: true}
}

// Instr returns the estimated byte size of one instruction.
func (m *Model) Instr(in *ir.Instr) int {
	switch {
	case in.Op == ir.OpPhi:
		// Phis lower to register copies on edges; the TTI-style model
		// treats them as free, while the measurement model charges for
		// the copies that register allocation cannot always coalesce.
		if m.BinaryMode {
			return 1
		}
		return 0
	case in.Op == ir.OpAlloca:
		// Static allocas fold into the prologue frame; in the
		// measurement model array allocas cost stack-frame adjustment.
		if m.BinaryMode {
			if at, ok := in.Alloc.(ir.ArrayType); ok && at.Len > 1 {
				return 4
			}
		}
		return 0
	case in.Op == ir.OpGEP:
		// Address arithmetic usually folds into the addressing mode of
		// the memory access that uses it; a standalone lea otherwise.
		if gepFoldable(in, m.BinaryMode) {
			return 0
		}
		return 4
	case in.Op == ir.OpBitcast || in.Op == ir.OpIntToPtr || in.Op == ir.OpPtrToInt:
		return 0
	case in.Op == ir.OpTrunc:
		return 0 // subregister use
	case in.Op == ir.OpZExt:
		return 3 // movzx
	case in.Op == ir.OpSExt:
		return 3 // movsx
	case in.Op == ir.OpFPTrunc, in.Op == ir.OpFPExt, in.Op == ir.OpSIToFP, in.Op == ir.OpFPToSI:
		return 4 // cvt* variants
	case in.Op == ir.OpLoad:
		return 3 + dispBytes(in.Operand(0))
	case in.Op == ir.OpStore:
		n := 3 + dispBytes(in.Operand(1))
		if c, ok := in.Operand(0).(*ir.IntConst); ok {
			n += immBytes(c.Val)
		}
		return n
	case in.Op == ir.OpCall:
		if !m.BinaryMode {
			return callBytes
		}
		// Measurement mode counts the ABI staging around the call,
		// calibrated against the assembly backend (see RunCalib in
		// internal/experiments): each argument reaches its SysV slot
		// with a reg-reg mov (3 bytes) or a mov-imm32 (5 bytes), and a
		// used result moves out of the return register (3 bytes).
		n := callBytes
		for _, a := range in.Operands {
			if _, ok := a.(*ir.IntConst); ok {
				n += 5
			} else {
				n += 3
			}
		}
		if _, void := in.Typ.(ir.VoidType); !void && len(in.Users()) > 0 {
			n += 3
		}
		return n
	case in.Op == ir.OpBr:
		return branchBytes
	case in.Op == ir.OpCondBr:
		return condBranchBytes
	case in.Op == ir.OpRet:
		return 1
	case in.Op == ir.OpICmp:
		return 3 + immOperandBytes(in)
	case in.Op == ir.OpFCmp:
		return 4
	case in.Op == ir.OpSelect:
		return 4 // cmov
	case in.Op == ir.OpSDiv, in.Op == ir.OpUDiv, in.Op == ir.OpSRem, in.Op == ir.OpURem:
		return 8 // sign-extend + div sequence
	case in.Op == ir.OpMul:
		return 4 + immOperandBytes(in)
	case in.Op == ir.OpShl, in.Op == ir.OpLShr, in.Op == ir.OpAShr:
		return 3
	case in.Op.IsFloatBinary():
		return 4
	case in.Op.IsIntBinary():
		return 3 + immOperandBytes(in)
	}
	return 4
}

// gepFoldable reports whether the gep can fold into the addressing modes
// of its users: all users are loads/stores in the same block and the gep
// has at most a base + one index (reg+reg*scale+disp addressing). The
// measurement model additionally requires a single user: multi-use
// address computations are typically materialized once.
func gepFoldable(in *ir.Instr, binaryMode bool) bool {
	if in.NumOperands() > 3 {
		return false
	}
	if in.Parent == nil || in.Parent.Parent == nil {
		return false
	}
	us := in.Users()
	if len(us) == 0 {
		return false
	}
	if binaryMode && len(us) > 1 {
		return false
	}
	for _, u := range us {
		if u.Op != ir.OpLoad && u.Op != ir.OpStore {
			return false
		}
	}
	return true
}

func dispBytes(addr ir.Value) int {
	// Loads/stores through a gep with constant indices get small
	// displacements; through arbitrary pointers, none.
	if g, ok := addr.(*ir.Instr); ok && g.Op == ir.OpGEP {
		for _, idx := range g.Operands[1:] {
			if c, ok := idx.(*ir.IntConst); ok && c.Val != 0 {
				return 1
			}
		}
	}
	if _, ok := addr.(*ir.Global); ok {
		return 4 // rip-relative disp32
	}
	return 0
}

func immOperandBytes(in *ir.Instr) int {
	for _, op := range in.Operands {
		if c, ok := op.(*ir.IntConst); ok {
			return immBytes(c.Val)
		}
	}
	return 0
}

func immBytes(v int64) int {
	if v >= -128 && v <= 127 {
		return 1
	}
	return 4
}

// Block returns the estimated size of all instructions in the block.
func (m *Model) Block(b *ir.Block) int {
	n := 0
	for _, in := range b.Instrs {
		n += m.Instr(in)
	}
	return n
}

// Func returns the estimated size of a function body, including a fixed
// prologue/epilogue overhead for defined functions. In the measurement
// model every non-entry block adds branch-target alignment padding.
func (m *Model) Func(f *ir.Func) int {
	if f.IsDecl() {
		return 0
	}
	const prologue = 4
	n := prologue
	hasCalls := false
	for i, b := range f.Blocks {
		n += m.Block(b)
		if m.BinaryMode && i > 0 {
			n += 2
		}
		if m.BinaryMode && !hasCalls {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					hasCalls = true
					break
				}
			}
		}
	}
	// Non-leaf functions keep live values in callee-saved registers
	// across calls; the backend's push/pop pairs around them are real
	// bytes the leaf case never pays (calibrated: ~3 saved registers).
	if hasCalls {
		n += 12
	}
	return n
}

// Module returns the estimated text size of all functions in the module
// plus the size of read-only constant data emitted alongside the code
// (RoLAG's constant mismatch arrays land in .rodata, which the paper's
// object-file measurements include).
func (m *Model) Module(mod *ir.Module) int {
	n := 0
	for _, f := range mod.Funcs {
		n += m.Func(f)
	}
	// Mirror the backend's .rodata layout: symbols are emitted in
	// module order, each aligned to its type's natural alignment, so
	// inter-symbol padding is part of the measured section size and
	// must be part of the estimate (a bare sum of element sizes
	// under-counts whenever a wider symbol follows a narrower one).
	ro := 0
	for _, g := range mod.Globals {
		if !g.ReadOnly {
			continue
		}
		if a := g.Elem.Align(); a > 1 {
			ro = (ro + a - 1) &^ (a - 1)
		}
		ro += g.Elem.Size()
	}
	return n + ro
}
