package mach

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// refRodata renders a .rodata section the straightforward way, one
// Fprintf per byte and one .zero line per zero tail. Print must produce
// exactly this text.
func refRodata(syms []RodataSym) string {
	var b strings.Builder
	b.WriteString("\n\t.section\t.rodata\n")
	for _, s := range syms {
		if s.Align > 1 {
			fmt.Fprintf(&b, "\t.balign\t%d\n", s.Align)
		}
		fmt.Fprintf(&b, "%s:\n", sanitizeLabel(s.Name))
		for i := 0; i < len(s.Data); i += 16 {
			end := min(i+16, len(s.Data))
			b.WriteString("\t.byte\t")
			for j := i; j < end; j++ {
				if j > i {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "0x%02x", s.Data[j])
			}
			b.WriteByte('\n')
		}
		if s.Zero > 0 {
			fmt.Fprintf(&b, "\t.zero\t%d\n", s.Zero)
		}
	}
	return b.String()
}

// sanitizeLabel maps a name onto the assembler label charset, rune by
// rune.
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

// pattern returns n bytes that differ from line to line.
func pattern(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*37 + 11)
	}
	return d
}

func TestPrintRodata(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	var cases []RodataSym
	for _, n := range []int{0, 1, 15, 16, 17, 33} {
		for _, align := range []int64{1, 8} {
			cases = append(cases, RodataSym{Name: fmt.Sprintf("g%d_a%d", n, align), Align: align, Data: pattern(n)})
		}
	}
	cases = append(cases,
		RodataSym{Name: "bytes", Align: 1, Data: all},
		RodataSym{Name: "bytes8", Align: 8, Data: all},
		RodataSym{Name: "big_align", Align: 1024, Data: pattern(3)},
		RodataSym{Name: "a-b c.d$e/é\xff", Align: 4, Data: pattern(5)},
		RodataSym{Name: "all_zero", Align: 16, Zero: 14400},
		RodataSym{Name: "trailing_zeros", Align: 8, Data: pattern(17), Zero: 47},
		RodataSym{Name: "interior_zeros", Align: 4, Data: []byte{1, 0, 0, 0, 0, 2, 0, 3}},
		RodataSym{Name: "empty", Align: 8},
	)
	check := func(t *testing.T, syms []RodataSym) {
		t.Helper()
		m := &Module{Name: "m", Rodata: syms}
		want := Print(&Module{Name: m.Name}, nil) + refRodata(syms)
		if got := Print(m, nil); got != want {
			t.Errorf("Print mismatch\ngot:\n%s\nwant:\n%s", got, want)
		}
		var b strings.Builder
		writeRodata(&b, syms)
		if rodataLen(syms) != b.Len() {
			t.Errorf("rodataLen = %d, printed %d bytes", rodataLen(syms), b.Len())
		}
	}
	for _, s := range cases {
		t.Run(s.Name, func(t *testing.T) { check(t, []RodataSym{s}) })
	}
	t.Run("all", func(t *testing.T) { check(t, cases) })
}

// TestPrintRodataAllocs bounds what printing data allocates: a module
// whose one symbol is 16 KiB prints about 100 KB of .byte lines, and
// printing it must not allocate much more than the output itself.
func TestPrintRodataAllocs(t *testing.T) {
	m := &Module{Name: "m", Rodata: []RodataSym{{Name: "arr", Align: 16, Data: pattern(16 << 10)}}}
	out := len(Print(m, nil))
	const reps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		Print(m, nil)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / reps
	if ratio := per / float64(out); ratio > 1.5 {
		t.Errorf("printing %d bytes allocated %.0f bytes per print (%.2fx the output, budget 1.5x)", out, per, ratio)
	}
}

func TestPrintShifts(t *testing.T) {
	var p printer
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OShl, Sz: 8, Src: ImmOp(3), Dst: RegOp(RAX)}, "shlq\t$3, %rax"},
		{Inst{Op: OShr, Sz: 4, Src: ImmOp(31), Dst: RegOp(RDX)}, "shrl\t$31, %edx"},
		{Inst{Op: OSar, Sz: 2, Src: ImmOp(1), Dst: RegOp(R9)}, "sarw\t$1, %r9w"},
		{Inst{Op: OShl, Sz: 4, Src: RegOp(RCX), Dst: RegOp(RSI)}, "shll\t%cl, %esi"},
		{Inst{Op: OShr, Sz: 8, Src: RegOp(RCX), Dst: RegOp(R12)}, "shrq\t%cl, %r12"},
		{Inst{Op: OSar, Sz: 1, Src: RegOp(RCX), Dst: RegOp(RBX)}, "sarb\t%cl, %bl"},
		{Inst{Op: OSar, Sz: 8, Src: ImmOp(63), Dst: MemOp(RSP, 8)}, "sarq\t$63, 8(%rsp)"},
	}
	for _, c := range cases {
		p.b = p.b[:0]
		if p.inst(&c.in); string(p.b) != c.want {
			t.Errorf("got %q, want %q", p.b, c.want)
		}
	}
}
