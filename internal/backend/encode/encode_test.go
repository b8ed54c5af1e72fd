package encode

import (
	"bytes"
	"fmt"
	"testing"

	"rolag/internal/backend/mach"
)

// Shorthand builders for the golden table.
func r(reg mach.Reg) mach.Operand             { return mach.RegOp(reg) }
func imm(v int64) mach.Operand                { return mach.ImmOp(v) }
func mem(base mach.Reg, d int64) mach.Operand { return mach.MemOp(base, d) }
func memIdx(base, idx mach.Reg, scale int8, d int64) mach.Operand {
	return mach.MemIdxOp(base, idx, scale, d)
}
func rip(sym string, d int64) mach.Operand { return mach.SymOp(sym, d) }

func ins(op mach.Op, sz int8, src, dst mach.Operand) *mach.Inst {
	return &mach.Inst{Op: op, Sz: sz, Src: src, Dst: dst}
}

// TestGoldenEncodings pins hand-assembled byte sequences: REX
// presence and bits, ModRM/SIB shapes (rsp/rbp/r12/r13 special
// cases), disp8 vs disp32 selection, and immediate widths. Each
// expected sequence was assembled by hand from the Intel SDM tables.
func TestGoldenEncodings(t *testing.T) {
	cases := []struct {
		name string
		in   *mach.Inst
		want []byte
	}{
		// Integer ALU, register forms.
		{"addl %eax, %ebx", ins(mach.OAdd, 4, r(mach.RAX), r(mach.RBX)), []byte{0x01, 0xC3}},
		{"addq %rax, %rbx", ins(mach.OAdd, 8, r(mach.RAX), r(mach.RBX)), []byte{0x48, 0x01, 0xC3}},
		{"addq %r8, %r15", ins(mach.OAdd, 8, r(mach.R8), r(mach.R15)), []byte{0x4D, 0x01, 0xC7}},
		{"xorl %esi, %esi", ins(mach.OXor, 4, r(mach.RSI), r(mach.RSI)), []byte{0x31, 0xF6}},
		{"cmpq %r9, %rdi", ins(mach.OCmp, 8, r(mach.R9), r(mach.RDI)), []byte{0x4C, 0x39, 0xCF}},

		// ALU immediates: imm8 short form vs imm32.
		{"addl $5, %ebx", ins(mach.OAdd, 4, imm(5), r(mach.RBX)), []byte{0x83, 0xC3, 0x05}},
		{"addq $1000, %rbx", ins(mach.OAdd, 8, imm(1000), r(mach.RBX)), []byte{0x48, 0x81, 0xC3, 0xE8, 0x03, 0x00, 0x00}},
		{"subq $8, %rsp", ins(mach.OSub, 8, imm(8), r(mach.RSP)), []byte{0x48, 0x83, 0xEC, 0x08}},
		{"cmpl $0, %esi", ins(mach.OCmp, 4, imm(0), r(mach.RSI)), []byte{0x83, 0xFE, 0x00}},
		{"cmpb $7, %al", ins(mach.OCmp, 1, imm(7), r(mach.RAX)), []byte{0x3C, 0x07}},
		{"cmpb $7, %bl", ins(mach.OCmp, 1, imm(7), r(mach.RBX)), []byte{0x80, 0xFB, 0x07}},
		{"addl $1000, %eax", ins(mach.OAdd, 4, imm(1000), r(mach.RAX)), []byte{0x05, 0xE8, 0x03, 0x00, 0x00}},
		{"cmpq $100000, %rax", ins(mach.OCmp, 8, imm(100000), r(mach.RAX)), []byte{0x48, 0x3D, 0xA0, 0x86, 0x01, 0x00}},
		{"addl $5, %eax", ins(mach.OAdd, 4, imm(5), r(mach.RAX)), []byte{0x83, 0xC0, 0x05}},

		// Plain moves.
		{"movq %rdi, %rbx", ins(mach.OMov, 8, r(mach.RDI), r(mach.RBX)), []byte{0x48, 0x89, 0xFB}},
		{"movl $7, %eax", ins(mach.OMov, 4, imm(7), r(mach.RAX)), []byte{0xB8, 0x07, 0x00, 0x00, 0x00}},
		{"movq $-1, %rax", ins(mach.OMov, 8, imm(-1), r(mach.RAX)), []byte{0x48, 0xC7, 0xC0, 0xFF, 0xFF, 0xFF, 0xFF}},
		{"movabsq $0x123456789, %rax", &mach.Inst{Op: mach.OMovAbs, Sz: 8, Src: imm(0x123456789), Dst: r(mach.RAX)},
			[]byte{0x48, 0xB8, 0x89, 0x67, 0x45, 0x23, 0x01, 0x00, 0x00, 0x00}},
		{"movb %sil, %al", ins(mach.OMov, 1, r(mach.RSI), r(mach.RAX)), []byte{0x40, 0x88, 0xF0}},

		// Loads/stores: ModRM addressing special cases.
		{"movl (%rax), %ecx", ins(mach.OMov, 4, mem(mach.RAX, 0), r(mach.RCX)), []byte{0x8B, 0x08}},
		{"movq 8(%rsp), %rax", ins(mach.OMov, 8, mem(mach.RSP, 8), r(mach.RAX)), []byte{0x48, 0x8B, 0x44, 0x24, 0x08}},
		{"movl %edx, 16(%rbp)", ins(mach.OMov, 4, r(mach.RDX), mem(mach.RBP, 16)), []byte{0x89, 0x55, 0x10}},
		{"movq (%rbp), %rax", ins(mach.OMov, 8, mem(mach.RBP, 0), r(mach.RAX)), []byte{0x48, 0x8B, 0x45, 0x00}},
		{"movl (%r12), %eax", ins(mach.OMov, 4, mem(mach.R12, 0), r(mach.RAX)), []byte{0x41, 0x8B, 0x04, 0x24}},
		{"movq (%r13), %rax", ins(mach.OMov, 8, mem(mach.R13, 0), r(mach.RAX)), []byte{0x49, 0x8B, 0x45, 0x00}},
		{"movl (%rax,%rcx,4), %edx", ins(mach.OMov, 4, memIdx(mach.RAX, mach.RCX, 4, 0), r(mach.RDX)), []byte{0x8B, 0x14, 0x88}},
		{"movq 128(%rax), %rbx", ins(mach.OMov, 8, mem(mach.RAX, 128), r(mach.RBX)), []byte{0x48, 0x8B, 0x98, 0x80, 0x00, 0x00, 0x00}},
		{"movb %al, (%rdx)", ins(mach.OMov, 1, r(mach.RAX), mem(mach.RDX, 0)), []byte{0x88, 0x02}},
		{"movl tbl(%rip), %eax", ins(mach.OMov, 4, rip("tbl", 0), r(mach.RAX)), []byte{0x8B, 0x05, 0x00, 0x00, 0x00, 0x00}},
		{"movq $3, (%rax)", ins(mach.OMov, 8, imm(3), mem(mach.RAX, 0)), []byte{0x48, 0xC7, 0x00, 0x03, 0x00, 0x00, 0x00}},
		{"movl $1, 4(%rsp)", ins(mach.OMov, 4, imm(1), mem(mach.RSP, 4)), []byte{0xC7, 0x44, 0x24, 0x04, 0x01, 0x00, 0x00, 0x00}},
		{"movw %ax, (%rdi)", ins(mach.OMov, 2, r(mach.RAX), mem(mach.RDI, 0)), []byte{0x66, 0x89, 0x07}},

		// lea.
		{"leaq 8(%rsp), %rdi", ins(mach.OLea, 8, mem(mach.RSP, 8), r(mach.RDI)), []byte{0x48, 0x8D, 0x7C, 0x24, 0x08}},
		{"leaq tbl(%rip), %rax", ins(mach.OLea, 8, rip("tbl", 0), r(mach.RAX)), []byte{0x48, 0x8D, 0x05, 0x00, 0x00, 0x00, 0x00}},

		// Multiply / divide / shifts.
		{"imulq %rbx, %rax", ins(mach.OImul, 8, r(mach.RBX), r(mach.RAX)), []byte{0x48, 0x0F, 0xAF, 0xC3}},
		{"imull $10, %ecx, %ecx", ins(mach.OImul, 4, imm(10), r(mach.RCX)), []byte{0x6B, 0xC9, 0x0A}},
		{"imulq $1000, %rdx, %rdx", ins(mach.OImul, 8, imm(1000), r(mach.RDX)), []byte{0x48, 0x69, 0xD2, 0xE8, 0x03, 0x00, 0x00}},
		{"shlq $3, %rbx", ins(mach.OShl, 8, imm(3), r(mach.RBX)), []byte{0x48, 0xC1, 0xE3, 0x03}},
		{"shlq $1, %rbx", ins(mach.OShl, 8, imm(1), r(mach.RBX)), []byte{0x48, 0xD1, 0xE3}},
		{"sarl %cl, %ebx", ins(mach.OSar, 4, r(mach.RCX), r(mach.RBX)), []byte{0xD3, 0xFB}},
		{"cltd", &mach.Inst{Op: mach.OCwd, Sz: 4}, []byte{0x99}},
		{"cqto", &mach.Inst{Op: mach.OCwd, Sz: 8}, []byte{0x48, 0x99}},
		{"idivl %ecx", &mach.Inst{Op: mach.OIdiv, Sz: 4, Src: r(mach.RCX)}, []byte{0xF7, 0xF9}},
		{"divq %rsi", &mach.Inst{Op: mach.ODiv, Sz: 8, Src: r(mach.RSI)}, []byte{0x48, 0xF7, 0xF6}},

		// setcc / cmovcc: byte-register REX rules.
		{"setne %al", &mach.Inst{Op: mach.OSet, Cond: mach.CondNE, Dst: r(mach.RAX)}, []byte{0x0F, 0x95, 0xC0}},
		{"setl %bpl", &mach.Inst{Op: mach.OSet, Cond: mach.CondL, Dst: r(mach.RBP)}, []byte{0x40, 0x0F, 0x9C, 0xC5}},
		{"setb %r12b", &mach.Inst{Op: mach.OSet, Cond: mach.CondB, Dst: r(mach.R12)}, []byte{0x41, 0x0F, 0x92, 0xC4}},
		{"cmovne %eax, %ebx", &mach.Inst{Op: mach.OCmov, Sz: 4, Cond: mach.CondNE, Src: r(mach.RAX), Dst: r(mach.RBX)}, []byte{0x0F, 0x45, 0xD8}},
		{"cmovg %rcx, %rax", &mach.Inst{Op: mach.OCmov, Sz: 8, Cond: mach.CondG, Src: r(mach.RCX), Dst: r(mach.RAX)}, []byte{0x48, 0x0F, 0x4F, 0xC1}},

		// Widening moves.
		{"movzbl %al, %eax", &mach.Inst{Op: mach.OMovzx, Sz: 4, SrcSz: 1, Src: r(mach.RAX), Dst: r(mach.RAX)}, []byte{0x0F, 0xB6, 0xC0}},
		{"movzbl (%rdi), %eax", &mach.Inst{Op: mach.OMovzx, Sz: 4, SrcSz: 1, Src: mem(mach.RDI, 0), Dst: r(mach.RAX)}, []byte{0x0F, 0xB6, 0x07}},
		{"movswq %ax, %rbx", &mach.Inst{Op: mach.OMovsx, Sz: 8, SrcSz: 2, Src: r(mach.RAX), Dst: r(mach.RBX)}, []byte{0x48, 0x0F, 0xBF, 0xD8}},
		{"movslq %edi, %rax", &mach.Inst{Op: mach.OMovsx, Sz: 8, SrcSz: 4, Src: r(mach.RDI), Dst: r(mach.RAX)}, []byte{0x48, 0x63, 0xC7}},

		// test.
		{"testq %rax, %rax", ins(mach.OTest, 8, r(mach.RAX), r(mach.RAX)), []byte{0x48, 0x85, 0xC0}},
		{"testb %r10b, %r10b", ins(mach.OTest, 1, r(mach.R10), r(mach.R10)), []byte{0x45, 0x84, 0xD2}},

		// Stack ops, call, ret.
		{"pushq %rbx", &mach.Inst{Op: mach.OPush, Src: r(mach.RBX)}, []byte{0x53}},
		{"pushq %r12", &mach.Inst{Op: mach.OPush, Src: r(mach.R12)}, []byte{0x41, 0x54}},
		{"popq %rbp", &mach.Inst{Op: mach.OPop, Dst: r(mach.RBP)}, []byte{0x5D}},
		{"call f", &mach.Inst{Op: mach.OCall, Src: mach.Operand{Kind: mach.KMem, Sym: "f"}}, []byte{0xE8, 0x00, 0x00, 0x00, 0x00}},
		{"ret", &mach.Inst{Op: mach.ORet}, []byte{0xC3}},

		// SSE scalar.
		{"movss (%rax), %xmm0", ins(mach.OMovss, 4, mem(mach.RAX, 0), r(mach.XMM0)), []byte{0xF3, 0x0F, 0x10, 0x00}},
		{"movsd %xmm1, 8(%rsp)", ins(mach.OMovsd, 8, r(mach.XMM1), mem(mach.RSP, 8)), []byte{0xF2, 0x0F, 0x11, 0x4C, 0x24, 0x08}},
		{"movsd %xmm0, %xmm1", ins(mach.OMovsd, 8, r(mach.XMM0), r(mach.XMM1)), []byte{0xF2, 0x0F, 0x10, 0xC8}},
		{"addsd %xmm1, %xmm0", ins(mach.OAddsd, 8, r(mach.XMM1), r(mach.XMM0)), []byte{0xF2, 0x0F, 0x58, 0xC1}},
		{"mulss %xmm8, %xmm2", ins(mach.OMulss, 4, r(mach.XMM8), r(mach.XMM2)), []byte{0xF3, 0x41, 0x0F, 0x59, 0xD0}},
		{"ucomisd %xmm1, %xmm0", ins(mach.OUcomisd, 8, r(mach.XMM1), r(mach.XMM0)), []byte{0x66, 0x0F, 0x2E, 0xC1}},
		{"xorps %xmm3, %xmm3", ins(mach.OXorps, 4, r(mach.XMM3), r(mach.XMM3)), []byte{0x0F, 0x57, 0xDB}},
		{"movq %rax, %xmm0", ins(mach.OMovq, 8, r(mach.RAX), r(mach.XMM0)), []byte{0x66, 0x48, 0x0F, 0x6E, 0xC0}},
		{"movd %xmm1, %ecx", ins(mach.OMovd, 4, r(mach.XMM1), r(mach.RCX)), []byte{0x66, 0x0F, 0x7E, 0xC9}},
		{"cvtss2sd %xmm0, %xmm0", ins(mach.OCvtss2sd, 8, r(mach.XMM0), r(mach.XMM0)), []byte{0xF3, 0x0F, 0x5A, 0xC0}},
		{"cvtsi2sd %eax, %xmm0", &mach.Inst{Op: mach.OCvtsi2sd, SrcSz: 4, Src: r(mach.RAX), Dst: r(mach.XMM0)}, []byte{0xF2, 0x0F, 0x2A, 0xC0}},
		{"cvtsi2sdq %rax, %xmm0", &mach.Inst{Op: mach.OCvtsi2sd, SrcSz: 8, Src: r(mach.RAX), Dst: r(mach.XMM0)}, []byte{0xF2, 0x48, 0x0F, 0x2A, 0xC0}},
		{"cvttsd2si %xmm0, %rax", &mach.Inst{Op: mach.OCvttsd2si, Sz: 8, Src: r(mach.XMM0), Dst: r(mach.RAX)}, []byte{0xF2, 0x48, 0x0F, 0x2C, 0xC0}},
	}
	for _, tc := range cases {
		got, err := Inst(tc.in)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s:\n got  % X\n want % X", tc.name, got, tc.want)
		}
	}
}

// TestBranchRelaxation pins rel8 selection for short displacements and
// rel32 growth once a branch can no longer reach.
func TestBranchRelaxation(t *testing.T) {
	// Short backward jump over one nop: 90; EB FD.
	f := &mach.Func{Name: "f", Blocks: []*mach.Block{
		{Name: "a", Insts: []*mach.Inst{{Op: mach.ONop}}},
		{Name: "b", Insts: []*mach.Inst{{Op: mach.OJmp, Target: 0}}},
	}}
	fc, err := Func(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x90, 0xEB, 0xFD}; !bytes.Equal(fc.Bytes, want) {
		t.Fatalf("short loop: got % X want % X", fc.Bytes, want)
	}

	// 128 nops force the conditional back-edge out of rel8 range.
	pad := make([]*mach.Inst, 128)
	for i := range pad {
		pad[i] = &mach.Inst{Op: mach.ONop}
	}
	g := &mach.Func{Name: "g", Blocks: []*mach.Block{
		{Name: "a", Insts: pad},
		{Name: "b", Insts: []*mach.Inst{{Op: mach.OJcc, Cond: mach.CondE, Target: 0}}},
	}}
	gc, err := Func(g)
	if err != nil {
		t.Fatal(err)
	}
	if gc.Size() != 128+6 {
		t.Fatalf("long jcc: total %d, want 134", gc.Size())
	}
	tail := gc.Bytes[128:]
	// rel = 0 - 134 = -134 = 0xFFFFFF7A.
	if want := []byte{0x0F, 0x84, 0x7A, 0xFF, 0xFF, 0xFF}; !bytes.Equal(tail, want) {
		t.Fatalf("long jcc: got % X want % X", tail, want)
	}

	// A forward jump of exactly 127 bytes stays rel8; 128 grows.
	mk := func(n int) int64 {
		pad := make([]*mach.Inst, n)
		for i := range pad {
			pad[i] = &mach.Inst{Op: mach.ONop}
		}
		h := &mach.Func{Name: "h", Blocks: []*mach.Block{
			{Name: "a", Insts: []*mach.Inst{{Op: mach.OJmp, Target: 2}}},
			{Name: "mid", Insts: pad},
			{Name: "end", Insts: []*mach.Inst{{Op: mach.ORet}}},
		}}
		hc, err := Func(h)
		if err != nil {
			t.Fatal(err)
		}
		return hc.Size()
	}
	if got := mk(127); got != 2+127+1 {
		t.Errorf("127-byte forward jump: size %d, want %d (rel8)", got, 2+127+1)
	}
	if got := mk(128); got != 5+128+1 {
		t.Errorf("128-byte forward jump: size %d, want %d (rel32)", got, 5+128+1)
	}
}

// TestRodataSize pins the aligned .rodata layout.
func TestRodataSize(t *testing.T) {
	m := &mach.Module{Name: "t", Rodata: []mach.RodataSym{
		{Name: "a", Align: 1, Data: make([]byte, 3)},
		{Name: "b", Align: 8, Data: make([]byte, 6), Zero: 4},
		{Name: "c", Align: 4, Zero: 4},
	}}
	// 3 bytes, pad to 8, +6+4 = 18, pad to 20, +4 = 24: zero tails
	// count like data.
	if got := m.RodataSize(); got != 24 {
		t.Fatalf("rodata size %d, want 24", got)
	}
	mc, err := Module(m)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Rodata != 24 {
		t.Fatalf("ModuleCode rodata %d, want 24", mc.Rodata)
	}
}

// TestUnsupportedShapesError ensures the encoder fails loudly instead
// of guessing on shapes the selector never emits.
func TestUnsupportedShapesError(t *testing.T) {
	bad := []*mach.Inst{
		ins(mach.OMov, 8, mem(mach.RAX, 0), mem(mach.RBX, 0)),                 // mem->mem
		ins(mach.OLea, 8, r(mach.RAX), r(mach.RBX)),                           // lea from reg
		{Op: mach.OMov, Sz: 8, Src: imm(1 << 40), Dst: r(mach.RAX)},           // needs movabs
		ins(mach.OMov, 8, mem(mach.RAX, 0), memIdx(mach.RBX, mach.RSP, 1, 0)), // rsp index
	}
	for i, in := range bad {
		if _, err := Inst(in); err == nil {
			t.Errorf("case %d (%v): expected an error", i, fmt.Sprintf("%+v", in))
		}
	}
}
