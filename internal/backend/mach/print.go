package mach

import (
	"fmt"
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

// RegName returns the AT&T name (no %) of a physical register at the
// given width. Virtual registers print as v<n> for debugging.
func RegName(r Reg, sz int8) string {
	if r.IsVirtual() {
		return fmt.Sprintf("v%d", r-VRegBase)
	}
	if r.IsXMM() {
		return fmt.Sprintf("xmm%d", r.Enc())
	}
	switch sz {
	case 1:
		return gpr8[r.Enc()]
	case 2:
		return gpr16[r.Enc()]
	case 4:
		return gpr32[r.Enc()]
	default:
		return gpr64[r.Enc()]
	}
}

func sizeSuffix(sz int8) string {
	switch sz {
	case 1:
		return "b"
	case 2:
		return "w"
	case 4:
		return "l"
	default:
		return "q"
	}
}

// sanitizeLabel maps an IR block name onto the assembler label charset.
func sanitizeLabel(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == '.', c == '$':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// BlockLabel is the assembler-local label of block i of f.
func BlockLabel(f *Func, i int) string {
	return fmt.Sprintf(".L%s_%d_%s", sanitizeLabel(f.Name), i, sanitizeLabel(f.Blocks[i].Name))
}

type printer struct {
	b *strings.Builder
	f *Func
}

func (p *printer) reg(r Reg, sz int8) string { return "%" + RegName(r, sz) }

func (p *printer) operand(o Operand, sz int8) string {
	switch o.Kind {
	case KReg:
		return p.reg(o.Reg, sz)
	case KImm:
		return fmt.Sprintf("$%d", o.Imm)
	case KMem:
		if o.Sym != "" {
			if o.Imm != 0 {
				return fmt.Sprintf("%s+%d(%%rip)", sanitizeLabel(o.Sym), o.Imm)
			}
			return fmt.Sprintf("%s(%%rip)", sanitizeLabel(o.Sym))
		}
		var b strings.Builder
		if o.Imm != 0 {
			fmt.Fprintf(&b, "%d", o.Imm)
		}
		b.WriteByte('(')
		if o.Base != NoReg {
			b.WriteString(p.reg(o.Base, 8))
		}
		if o.Index != NoReg {
			fmt.Fprintf(&b, ",%s,%d", p.reg(o.Index, 8), o.Scale)
		}
		b.WriteByte(')')
		return b.String()
	case KFrame:
		return fmt.Sprintf("frame%d+%d", int(o.Index), o.Imm)
	case KIncoming:
		return fmt.Sprintf("incoming%d", int(o.Index))
	}
	return "?"
}

// widthSuffix for movzx/movsx: source then dest letter (movzbl etc).
func extMnemonic(base string, srcSz, dstSz int8) string {
	letter := func(sz int8) string {
		switch sz {
		case 1:
			return "b"
		case 2:
			return "w"
		case 4:
			return "l"
		default:
			return "q"
		}
	}
	if base == "movs" && srcSz == 4 && dstSz == 8 {
		return "movslq"
	}
	return base + letter(srcSz) + letter(dstSz)
}

func (p *printer) inst(in *Inst) string {
	suf := sizeSuffix(in.Sz)
	two := func(m string) string {
		return fmt.Sprintf("%s\t%s, %s", m, p.operand(in.Src, in.Sz), p.operand(in.Dst, in.Sz))
	}
	// Float ops: register operands are always xmm (or mem); no suffix
	// logic needed beyond the mnemonic itself.
	fp := func(m string) string {
		return fmt.Sprintf("%s\t%s, %s", m, p.operand(in.Src, 8), p.operand(in.Dst, 8))
	}
	switch in.Op {
	case ONop:
		return "nop"
	case OMov:
		return two("mov" + suf)
	case OMovAbs:
		return fmt.Sprintf("movabsq\t$%d, %s", in.Src.Imm, p.operand(in.Dst, 8))
	case OLea:
		return fmt.Sprintf("leaq\t%s, %s", p.operand(in.Src, 8), p.operand(in.Dst, 8))
	case OAdd:
		return two("add" + suf)
	case OSub:
		return two("sub" + suf)
	case OAnd:
		return two("and" + suf)
	case OOr:
		return two("or" + suf)
	case OXor:
		return two("xor" + suf)
	case OImul:
		if in.Src.Kind == KImm {
			return fmt.Sprintf("imul%s\t$%d, %s, %s", suf, in.Src.Imm,
				p.operand(in.Dst, in.Sz), p.operand(in.Dst, in.Sz))
		}
		return two("imul" + suf)
	case OShl, OShr, OSar:
		m := "sar"
		switch in.Op {
		case OShl:
			m = "shl"
		case OShr:
			m = "shr"
		}
		if in.Src.Kind == KImm {
			return fmt.Sprintf("%s%s\t$%d, %s", m, suf, in.Src.Imm, p.operand(in.Dst, in.Sz))
		}
		return fmt.Sprintf("%s%s\t%%cl, %s", m, suf, p.operand(in.Dst, in.Sz))
	case OCmp:
		return two("cmp" + suf)
	case OTest:
		return two("test" + suf)
	case OMovzx:
		return fmt.Sprintf("%s\t%s, %s", extMnemonic("movz", in.SrcSz, in.Sz),
			p.operand(in.Src, in.SrcSz), p.operand(in.Dst, in.Sz))
	case OMovsx:
		return fmt.Sprintf("%s\t%s, %s", extMnemonic("movs", in.SrcSz, in.Sz),
			p.operand(in.Src, in.SrcSz), p.operand(in.Dst, in.Sz))
	case OCwd:
		if in.Sz == 8 {
			return "cqto"
		}
		return "cltd"
	case OIdiv:
		return fmt.Sprintf("idiv%s\t%s", suf, p.operand(in.Src, in.Sz))
	case ODiv:
		return fmt.Sprintf("div%s\t%s", suf, p.operand(in.Src, in.Sz))
	case OSet:
		return fmt.Sprintf("set%s\t%s", in.Cond.Name(), p.operand(in.Dst, 1))
	case OCmov:
		return fmt.Sprintf("cmov%s\t%s, %s", in.Cond.Name(),
			p.operand(in.Src, in.Sz), p.operand(in.Dst, in.Sz))
	case OJmp:
		return fmt.Sprintf("jmp\t%s", BlockLabel(p.f, in.Target))
	case OJcc:
		return fmt.Sprintf("j%s\t%s", in.Cond.Name(), BlockLabel(p.f, in.Target))
	case OCall:
		return fmt.Sprintf("call\t%s", sanitizeLabel(in.Src.Sym))
	case ORet:
		return "ret"
	case OPush:
		return fmt.Sprintf("pushq\t%s", p.operand(in.Src, 8))
	case OPop:
		return fmt.Sprintf("popq\t%s", p.operand(in.Dst, 8))
	case OMovss:
		return fp("movss")
	case OMovsd:
		return fp("movsd")
	case OAddss:
		return fp("addss")
	case OAddsd:
		return fp("addsd")
	case OSubss:
		return fp("subss")
	case OSubsd:
		return fp("subsd")
	case OMulss:
		return fp("mulss")
	case OMulsd:
		return fp("mulsd")
	case ODivss:
		return fp("divss")
	case ODivsd:
		return fp("divsd")
	case OUcomiss:
		return fp("ucomiss")
	case OUcomisd:
		return fp("ucomisd")
	case OXorps:
		return fp("xorps")
	case OMovd:
		return fmt.Sprintf("movd\t%s, %s", p.gprOrXmm(in.Src, 4), p.gprOrXmm(in.Dst, 4))
	case OMovq:
		return fmt.Sprintf("movq\t%s, %s", p.gprOrXmm(in.Src, 8), p.gprOrXmm(in.Dst, 8))
	case OCvtss2sd:
		return fp("cvtss2sd")
	case OCvtsd2ss:
		return fp("cvtsd2ss")
	case OCvtsi2ss:
		return fmt.Sprintf("cvtsi2ss\t%s, %s", p.operand(in.Src, in.SrcSz), p.operand(in.Dst, 8))
	case OCvtsi2sd:
		return fmt.Sprintf("cvtsi2sd\t%s, %s", p.operand(in.Src, in.SrcSz), p.operand(in.Dst, 8))
	case OCvttss2si:
		return fmt.Sprintf("cvttss2si\t%s, %s", p.operand(in.Src, 8), p.operand(in.Dst, in.Sz))
	case OCvttsd2si:
		return fmt.Sprintf("cvttsd2si\t%s, %s", p.operand(in.Src, 8), p.operand(in.Dst, in.Sz))
	}
	return fmt.Sprintf("?op%d", in.Op)
}

// gprOrXmm sizes a register operand by its file: XMM registers have a
// single name, GPRs use the given integer width.
func (p *printer) gprOrXmm(o Operand, gprSz int8) string {
	if o.Kind == KReg && !o.Reg.IsVirtual() && !o.Reg.IsXMM() {
		return p.reg(o.Reg, gprSz)
	}
	return p.operand(o, 8)
}

// Print renders the module as GNU-as-compatible AT&T assembly. ann, if
// non-nil, maps function names to encoded .text byte counts emitted as
// comments (comments never change what the assembler produces).
func Print(m *Module, ann map[string]int64) string {
	var b strings.Builder
	// The header names no module: the service caches assembly under a
	// key that excludes the module name.
	b.WriteString("# x86-64 AT&T syntax (rolag backend)\n")
	b.WriteString("\t.text\n")
	for _, f := range m.Funcs {
		p := &printer{b: &b, f: f}
		name := sanitizeLabel(f.Name)
		b.WriteByte('\n')
		if ann != nil {
			if n, ok := ann[f.Name]; ok {
				fmt.Fprintf(&b, "# .text %s: %d bytes\n", f.Name, n)
			}
		}
		fmt.Fprintf(&b, "\t.globl\t%s\n", name)
		fmt.Fprintf(&b, "\t.type\t%s, @function\n", name)
		fmt.Fprintf(&b, "%s:\n", name)
		for i, blk := range f.Blocks {
			fmt.Fprintf(&b, "%s:\n", BlockLabel(f, i))
			for _, in := range blk.Insts {
				b.WriteByte('\t')
				b.WriteString(p.inst(in))
				b.WriteByte('\n')
			}
		}
		fmt.Fprintf(&b, "\t.size\t%s, .-%s\n", name, name)
	}
	if len(m.Rodata) == 0 {
		return b.String()
	}
	// Initialized data can outweigh the code, and callers such as the
	// service cache keep the whole backing array, so the result is sized
	// exactly.
	var out strings.Builder
	out.Grow(b.Len() + rodataLen(m.Rodata))
	out.WriteString(b.String())
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
	n := len(rodataHeader)
	for _, s := range syms {
		if s.Align > 1 {
			n += len(balignPrefix) + len(strconv.FormatInt(s.Align, 10)) + len("\n")
		}
		// sanitizeLabel writes one byte per rune (an invalid byte
		// counts as one rune and becomes '_').
		n += utf8.RuneCountInString(s.Name) + len(":\n")
		// A line of k bytes is the prefix, k "0xhh, " and a "\n" in
		// place of the last ", ".
		lines := (len(s.Data) + bytesPerLine - 1) / bytesPerLine
		n += lines*(len(bytePrefix)-len(", ")+len("\n")) + len(s.Data)*len("0xhh, ")
		if s.Zero > 0 {
			n += len(zeroPrefix) + len(strconv.FormatInt(s.Zero, 10)) + len("\n")
		}
	}
	return n
}

// writeRodata prints the .rodata section: per symbol its alignment,
// its label, its bytes as .byte lines of up to 16, and its zero tail
// as one .zero line.
func writeRodata(b *strings.Builder, syms []RodataSym) {
	b.WriteString(rodataHeader)
	var line [len(bytePrefix) + bytesPerLine*len("0xhh, ")]byte
	copy(line[:], bytePrefix)
	for _, s := range syms {
		if s.Align > 1 {
			b.WriteString(balignPrefix)
			b.WriteString(strconv.FormatInt(s.Align, 10))
			b.WriteByte('\n')
		}
		b.WriteString(sanitizeLabel(s.Name))
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
			b.WriteString(strconv.FormatInt(s.Zero, 10))
			b.WriteByte('\n')
		}
	}
}
