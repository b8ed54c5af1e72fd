package mach

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// Register name tables, indexed by hardware encoding 0..15.
var gpr64 = [16]string{"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"}
var gpr32 = [16]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
	"r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d"}
var gpr16 = [16]string{"ax", "cx", "dx", "bx", "sp", "bp", "si", "di",
	"r8w", "r9w", "r10w", "r11w", "r12w", "r13w", "r14w", "r15w"}
var gpr8 = [16]string{"al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil",
	"r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b"}

// appendReg appends the AT&T name (with %) of a register at the given
// width. Virtual registers print as %v<n> for debugging.
func appendReg(b []byte, r Reg, sz int8) []byte {
	b = append(b, '%')
	switch {
	case r.IsVirtual():
		return strconv.AppendInt(append(b, 'v'), int64(r-VRegBase), 10)
	case r.IsXMM():
		return strconv.AppendInt(append(b, "xmm"...), int64(r.Enc()), 10)
	}
	switch sz {
	case 1:
		return append(b, gpr8[r.Enc()]...)
	case 2:
		return append(b, gpr16[r.Enc()]...)
	case 4:
		return append(b, gpr32[r.Enc()]...)
	default:
		return append(b, gpr64[r.Enc()]...)
	}
}

// sizeSuffix is the AT&T operand-size letter of a width in bytes.
func sizeSuffix(sz int8) byte {
	switch sz {
	case 1:
		return 'b'
	case 2:
		return 'w'
	case 4:
		return 'l'
	default:
		return 'q'
	}
}

// appendLabel appends s mapped onto the assembler label charset: one
// byte per rune, '_' for a rune outside it.
func appendLabel(b []byte, s string) []byte {
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == '.', c == '$':
			b = append(b, byte(c))
		default:
			b = append(b, '_')
		}
	}
	return b
}

// printer appends one module's assembly to b.
type printer struct {
	b []byte
	// labels holds the current function's label, which ends at
	// nameEnd, then its block labels back to back: block i's label ends
	// at ends[i]. They are computed once per function, not once per
	// jump.
	labels  []byte
	nameEnd int
	ends    []int
}

// setFunc computes f's label and its block labels,
// .L<func>_<i>_<block>.
func (p *printer) setFunc(f *Func) {
	// Names print at most one byte per byte; a block label adds ".L",
	// two '_' and up to 20 digits.
	n := len(f.Name)
	for _, blk := range f.Blocks {
		n += 24 + len(f.Name) + len(blk.Name)
	}
	p.labels = appendLabel(emptied(p.labels, n), f.Name)
	p.nameEnd = len(p.labels)
	p.ends = emptied(p.ends, len(f.Blocks))
	for i, blk := range f.Blocks {
		p.labels = append(p.labels, ".L"...)
		p.labels = append(p.labels, p.labels[:p.nameEnd]...)
		p.labels = append(p.labels, '_')
		p.labels = strconv.AppendInt(p.labels, int64(i), 10)
		p.labels = append(p.labels, '_')
		p.labels = appendLabel(p.labels, blk.Name)
		p.ends = append(p.ends, len(p.labels))
	}
}

// emptied returns s truncated to length 0 with room for n elements. It
// reallocates with make, not slices.Grow: under the race detector
// slices.Grow's appended temporary escapes to the heap, one more
// allocation per call.
func emptied[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, 0, n)
	}
	return s[:0]
}

// label appends block i's label.
func (p *printer) label(i int) {
	start := p.nameEnd
	if i > 0 {
		start = p.ends[i-1]
	}
	p.b = append(p.b, p.labels[start:p.ends[i]]...)
}

// name appends the current function's label.
func (p *printer) name() { p.b = append(p.b, p.labels[:p.nameEnd]...) }

func (p *printer) str(s string) { p.b = append(p.b, s...) }

func (p *printer) imm(v int64) { p.b = strconv.AppendInt(p.b, v, 10) }

func (p *printer) reg(r Reg, sz int8) { p.b = appendReg(p.b, r, sz) }

func (p *printer) operand(o Operand, sz int8) {
	switch o.Kind {
	case KReg:
		p.reg(o.Reg, sz)
	case KImm:
		p.b = append(p.b, '$')
		p.imm(o.Imm)
	case KMem:
		if o.Sym != "" {
			p.b = appendLabel(p.b, o.Sym)
			if o.Imm != 0 {
				p.b = append(p.b, '+')
				p.imm(o.Imm)
			}
			p.str("(%rip)")
			return
		}
		if o.Imm != 0 {
			p.imm(o.Imm)
		}
		p.b = append(p.b, '(')
		if o.Base != NoReg {
			p.reg(o.Base, 8)
		}
		if o.Index != NoReg {
			p.b = append(p.b, ',')
			p.reg(o.Index, 8)
			p.b = append(p.b, ',')
			p.imm(int64(o.Scale))
		}
		p.b = append(p.b, ')')
	case KFrame:
		p.str("frame")
		p.imm(int64(o.Index))
		p.b = append(p.b, '+')
		p.imm(o.Imm)
	case KIncoming:
		p.str("incoming")
		p.imm(int64(o.Index))
	default:
		p.b = append(p.b, '?')
	}
}

// gprOrXmm sizes a register operand by its file: XMM registers have a
// single name, GPRs use the given integer width.
func (p *printer) gprOrXmm(o Operand, gprSz int8) {
	if o.Kind == KReg && !o.Reg.IsVirtual() && !o.Reg.IsXMM() {
		p.reg(o.Reg, gprSz)
		return
	}
	p.operand(o, 8)
}

// mnemonic appends m, then suffix unless it is 0, then a tab.
func (p *printer) mnemonic(m string, suffix byte) {
	p.str(m)
	if suffix != 0 {
		p.b = append(p.b, suffix)
	}
	p.b = append(p.b, '\t')
}

// operands appends "src, dst" at the widths given.
func (p *printer) operands(src Operand, srcSz int8, dst Operand, dstSz int8) {
	p.operand(src, srcSz)
	p.str(", ")
	p.operand(dst, dstSz)
}

// twoOps maps the two-operand integer ops to their mnemonic stems,
// which take the operand-size suffix.
var twoOps = [...]string{
	OMov: "mov", OAdd: "add", OSub: "sub", OAnd: "and", OOr: "or",
	OXor: "xor", OImul: "imul", OCmp: "cmp", OTest: "test",
}

// fpOps maps the SSE ops whose operands print at width 8 (xmm
// registers, or memory) to their mnemonics.
var fpOps = [...]string{
	OMovss: "movss", OMovsd: "movsd", OAddss: "addss", OAddsd: "addsd",
	OSubss: "subss", OSubsd: "subsd", OMulss: "mulss", OMulsd: "mulsd",
	ODivss: "divss", ODivsd: "divsd", OUcomiss: "ucomiss", OUcomisd: "ucomisd",
	OXorps: "xorps", OCvtss2sd: "cvtss2sd", OCvtsd2ss: "cvtsd2ss",
}

// inst appends one instruction, without its leading tab and newline.
func (p *printer) inst(in *Inst) {
	if int(in.Op) < len(twoOps) && twoOps[in.Op] != "" && !(in.Op == OImul && in.Src.Kind == KImm) {
		p.mnemonic(twoOps[in.Op], sizeSuffix(in.Sz))
		p.operands(in.Src, in.Sz, in.Dst, in.Sz)
		return
	}
	if int(in.Op) < len(fpOps) && fpOps[in.Op] != "" {
		p.mnemonic(fpOps[in.Op], 0)
		p.operands(in.Src, 8, in.Dst, 8)
		return
	}
	switch in.Op {
	case ONop:
		p.str("nop")
	case OMovAbs:
		p.str("movabsq\t$")
		p.imm(in.Src.Imm)
		p.str(", ")
		p.operand(in.Dst, 8)
	case OLea:
		p.str("leaq\t")
		p.operands(in.Src, 8, in.Dst, 8)
	case OImul: // immediate form: imul $imm, dst, dst
		p.mnemonic("imul", sizeSuffix(in.Sz))
		p.b = append(p.b, '$')
		p.imm(in.Src.Imm)
		p.str(", ")
		p.operands(in.Dst, in.Sz, in.Dst, in.Sz)
	case OShl, OShr, OSar:
		m := "sar"
		switch in.Op {
		case OShl:
			m = "shl"
		case OShr:
			m = "shr"
		}
		p.mnemonic(m, sizeSuffix(in.Sz))
		if in.Src.Kind == KImm {
			p.b = append(p.b, '$')
			p.imm(in.Src.Imm)
		} else {
			p.str("%cl")
		}
		p.str(", ")
		p.operand(in.Dst, in.Sz)
	case OMovzx, OMovsx:
		if in.Op == OMovzx {
			p.str("movz")
		} else {
			p.str("movs")
		}
		if in.Op == OMovsx && in.SrcSz == 4 && in.Sz == 8 {
			p.str("lq")
		} else {
			p.b = append(p.b, sizeSuffix(in.SrcSz), sizeSuffix(in.Sz))
		}
		p.b = append(p.b, '\t')
		p.operands(in.Src, in.SrcSz, in.Dst, in.Sz)
	case OCwd:
		if in.Sz == 8 {
			p.str("cqto")
		} else {
			p.str("cltd")
		}
	case OIdiv:
		p.mnemonic("idiv", sizeSuffix(in.Sz))
		p.operand(in.Src, in.Sz)
	case ODiv:
		p.mnemonic("div", sizeSuffix(in.Sz))
		p.operand(in.Src, in.Sz)
	case OSet:
		p.str("set")
		p.mnemonic(in.Cond.Name(), 0)
		p.operand(in.Dst, 1)
	case OCmov:
		p.str("cmov")
		p.mnemonic(in.Cond.Name(), 0)
		p.operands(in.Src, in.Sz, in.Dst, in.Sz)
	case OJmp:
		p.str("jmp\t")
		p.label(in.Target)
	case OJcc:
		p.b = append(p.b, 'j')
		p.mnemonic(in.Cond.Name(), 0)
		p.label(in.Target)
	case OCall:
		p.str("call\t")
		p.b = appendLabel(p.b, in.Src.Sym)
	case ORet:
		p.str("ret")
	case OPush:
		p.str("pushq\t")
		p.operand(in.Src, 8)
	case OPop:
		p.str("popq\t")
		p.operand(in.Dst, 8)
	case OMovd:
		p.str("movd\t")
		p.gprOrXmm(in.Src, 4)
		p.str(", ")
		p.gprOrXmm(in.Dst, 4)
	case OMovq:
		p.str("movq\t")
		p.gprOrXmm(in.Src, 8)
		p.str(", ")
		p.gprOrXmm(in.Dst, 8)
	case OCvtsi2ss, OCvtsi2sd:
		p.str("cvtsi2s")
		p.b = append(p.b, "sd"[in.Op-OCvtsi2ss], '\t')
		p.operands(in.Src, in.SrcSz, in.Dst, 8)
	case OCvttss2si, OCvttsd2si:
		p.str("cvtts")
		p.b = append(p.b, "sd"[in.Op-OCvttss2si])
		p.str("2si\t")
		p.operands(in.Src, 8, in.Dst, in.Sz)
	default:
		p.str("?op")
		p.imm(int64(in.Op))
	}
}

// textEstimate is the estimated length of a function's printed text:
// a header and about 24 bytes per instruction line.
func textEstimate(f *Func) int {
	n := 96 + 4*len(f.Name)
	for _, blk := range f.Blocks {
		n += 2*len(f.Name) + len(blk.Name) + 16 + 24*len(blk.Insts)
	}
	return n
}

// Print renders the module as GNU-as-compatible AT&T assembly. ann, if
// non-nil, maps function names to encoded .text byte counts emitted as
// comments (comments never change what the assembler produces).
func Print(m *Module, ann map[string]int64) string {
	n := 64
	for _, f := range m.Funcs {
		n += textEstimate(f)
	}
	p := &printer{b: make([]byte, 0, n)}
	// The header names no module: the service caches assembly under a
	// key that excludes the module name.
	p.str("# x86-64 AT&T syntax (rolag backend)\n\t.text\n")
	for _, f := range m.Funcs {
		p.setFunc(f)
		p.b = append(p.b, '\n')
		if size, ok := ann[f.Name]; ok {
			p.str("# .text ")
			p.str(f.Name)
			p.str(": ")
			p.imm(size)
			p.str(" bytes\n")
		}
		p.str("\t.globl\t")
		p.name()
		p.str("\n\t.type\t")
		p.name()
		p.str(", @function\n")
		p.name()
		p.str(":\n")
		for i, blk := range f.Blocks {
			p.label(i)
			p.str(":\n")
			for _, in := range blk.Insts {
				p.b = append(p.b, '\t')
				p.inst(in)
				p.b = append(p.b, '\n')
			}
		}
		p.str("\t.size\t")
		p.name()
		p.str(", .-")
		p.name()
		p.b = append(p.b, '\n')
	}
	// The result is sized exactly, once: callers such as the service
	// cache keep the whole backing array, and initialized data can
	// outweigh the code.
	var out strings.Builder
	out.Grow(len(p.b) + rodataLen(m.Rodata))
	out.Write(p.b)
	writeRodata(&out, m.Rodata)
	return out.String()
}

const (
	rodataHeader = "\n\t.section\t.rodata\n"
	balignPrefix = "\t.balign\t"
	bytePrefix   = "\t.byte\t"
	zeroPrefix   = "\t.zero\t"
	bytesPerLine = 16
	hexDigits    = "0123456789abcdef"
)

// rodataLen is the exact length of writeRodata's output.
func rodataLen(syms []RodataSym) int {
	if len(syms) == 0 {
		return 0
	}
	n := len(rodataHeader)
	for _, s := range syms {
		if s.Align > 1 {
			n += len(balignPrefix) + decimalLen(s.Align) + len("\n")
		}
		// appendLabel writes one byte per rune (an invalid byte
		// counts as one rune and becomes '_').
		n += utf8.RuneCountInString(s.Name) + len(":\n")
		// A line of k bytes is the prefix, k "0xhh, " and a "\n" in
		// place of the last ", ".
		lines := (len(s.Data) + bytesPerLine - 1) / bytesPerLine
		n += lines*(len(bytePrefix)-len(", ")+len("\n")) + len(s.Data)*len("0xhh, ")
		if s.Zero > 0 {
			n += len(zeroPrefix) + decimalLen(s.Zero) + len("\n")
		}
	}
	return n
}

// decimalLen is the length of strconv.FormatInt(v, 10).
func decimalLen(v int64) int {
	n := 1
	if v < 0 {
		n++
	}
	for ; v <= -10 || v >= 10; v /= 10 {
		n++
	}
	return n
}

// writeRodata prints the .rodata section: per symbol its alignment,
// its label, its bytes as .byte lines of up to 16, and its zero tail
// as one .zero line. No symbols print nothing.
func writeRodata(b *strings.Builder, syms []RodataSym) {
	if len(syms) == 0 {
		return
	}
	b.WriteString(rodataHeader)
	var line [len(bytePrefix) + bytesPerLine*len("0xhh, ")]byte
	copy(line[:], bytePrefix)
	var label [64]byte
	for _, s := range syms {
		if s.Align > 1 {
			b.WriteString(balignPrefix)
			b.Write(strconv.AppendInt(label[:0], s.Align, 10))
			b.WriteByte('\n')
		}
		b.Write(appendLabel(label[:0], s.Name))
		b.WriteString(":\n")
		for data := s.Data; len(data) > 0; {
			chunk := data[:min(len(data), bytesPerLine)]
			data = data[len(chunk):]
			n := len(bytePrefix)
			for _, c := range chunk {
				line[n], line[n+1], line[n+2], line[n+3] = '0', 'x', hexDigits[c>>4], hexDigits[c&15]
				line[n+4], line[n+5] = ',', ' '
				n += 6
			}
			// The last byte's ", " becomes the newline.
			line[n-2] = '\n'
			b.Write(line[:n-1])
		}
		if s.Zero > 0 {
			b.WriteString(zeroPrefix)
			b.Write(strconv.AppendInt(label[:0], s.Zero, 10))
			b.WriteByte('\n')
		}
	}
}
