package backend_test

import (
	"bytes"
	"debug/elf"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/backend/mach"
	"rolag/internal/ir"
	"rolag/internal/workloads/tsvc"
)

func buildExample(t *testing.T, path string, opt rolag.Optimization) *rolag.Result {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rolag.Config{Name: filepath.Base(path), Opt: opt}
	if opt == rolag.OptRoLAG {
		cfg.Options = rolag.DefaultOptions()
	}
	res, err := rolag.Build(string(src), cfg)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return res
}

func examplePaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "c", "*.c"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	return paths
}

// TestLowerExamples lowers every example under both pipelines and
// checks the encoder produces a nonzero, deterministic .text.
func TestLowerExamples(t *testing.T) {
	for _, path := range examplePaths(t) {
		for _, opt := range []rolag.Optimization{rolag.OptNone, rolag.OptRoLAG} {
			res := buildExample(t, path, opt)
			r, err := backend.Compile(res.Module, nil)
			if err != nil {
				t.Fatalf("%s opt=%v: %v", path, opt, err)
			}
			if r.Code.Text == 0 {
				t.Errorf("%s opt=%v: empty .text", path, opt)
			}
			asm := r.Asm()
			if asm == "" {
				t.Errorf("%s opt=%v: empty asm", path, opt)
			}
			// Determinism: a second compile of the same module must be
			// byte-identical.
			r2, err := backend.Compile(res.Module, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range r.Code.FuncOrder {
				if !bytes.Equal(r.Code.Funcs[name].Bytes, r2.Code.Funcs[name].Bytes) {
					t.Errorf("%s opt=%v: non-deterministic encoding for %s", path, opt, name)
				}
			}
			if r.Asm() != asm {
				t.Errorf("%s opt=%v: non-deterministic asm", path, opt)
			}
		}
	}
}

// TestAssemblerAgreement assembles the printed assembly with the system
// assembler (when present) and checks the built-in encoder agrees on
// the total .text size, function by function via symbol sizes, and
// that the assembled .rodata holds exactly the lowered data with its
// alignment padding. The examples carry little data, so every 10th
// TSVC kernel (Unroll 8 + Flatten + RoLAG, with the suite's global
// arrays) is assembled too.
func TestAssemblerAgreement(t *testing.T) {
	as, err := exec.LookPath("as")
	if err != nil {
		t.Skip("no system assembler in PATH")
	}
	for _, path := range examplePaths(t) {
		for _, opt := range []rolag.Optimization{rolag.OptNone, rolag.OptRoLAG} {
			res := buildExample(t, path, opt)
			r, err := backend.Compile(res.Module, nil)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			checkAssembled(t, as, fmt.Sprintf("%s opt=%v", path, opt), r)
		}
	}
	ks := tsvc.Kernels()
	for i := 0; i < len(ks); i += 10 {
		k := ks[i]
		res, err := rolag.Build(k.Src, rolag.Config{Name: k.Name, Unroll: 8, Opt: rolag.OptRoLAG, Flatten: true})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		r, err := backend.Compile(res.Module, nil)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		checkAssembled(t, as, "tsvc "+k.Name, r)
	}
}

// checkAssembled assembles r's printed assembly with as and compares
// the object file against the encoder and the lowered data.
func checkAssembled(t *testing.T, as, label string, r *backend.Result) {
	t.Helper()
	obj := filepath.Join(t.TempDir(), "out.o")
	cmd := exec.Command(as, "--64", "-o", obj, "--", "-")
	cmd.Stdin = strings.NewReader(r.Asm())
	if outb, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%s: as failed: %v\n%s\nasm:\n%s", label, err, outb, r.Asm())
	}
	ef, err := elf.Open(obj)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	syms, err := ef.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range syms {
		if elf.ST_TYPE(sym.Info) != elf.STT_FUNC {
			continue
		}
		if got := r.Code.FuncSize(sym.Name); got != int64(sym.Size) {
			t.Errorf("%s: %s: encoder says %d bytes, assembler says %d",
				label, sym.Name, got, sym.Size)
		}
	}
	text := ef.Section(".text")
	if text == nil {
		t.Fatalf("%s: no .text section", label)
	}
	if int64(text.Size) != r.Code.Text {
		t.Errorf("%s: .text size: encoder %d, assembler %d", label, r.Code.Text, text.Size)
	}
	// The lowered data, each symbol zero-padded to its alignment and
	// followed by its zero tail.
	var want []byte
	for _, s := range r.Mach.Rodata {
		for s.Align > 1 && int64(len(want))%s.Align != 0 {
			want = append(want, 0)
		}
		want = append(want, s.Data...)
		want = append(want, make([]byte, s.Zero)...)
	}
	var got []byte
	if ro := ef.Section(".rodata"); ro != nil {
		if got, err = ro.Data(); err != nil {
			t.Fatal(err)
		}
	}
	if int64(len(got)) != r.Code.Rodata {
		t.Errorf("%s: .rodata size: encoder %d, assembler %d", label, r.Code.Rodata, len(got))
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: assembled .rodata (%d bytes) differs from the lowered data (%d bytes)",
			label, len(got), len(want))
	}
}

// TestZeroDataStaysImplicit lowers and prints a module holding one
// zero-initialized 1 MiB global: the global prints as one .zero line
// and costs about what a one-element global costs, whether its
// initializer is nil or a ZeroConst.
func TestZeroDataStaysImplicit(t *testing.T) {
	module := func(n int, init func(ir.Type) ir.Const) *ir.Module {
		m := ir.NewModule("m")
		elem := ir.ArrayOf(n, ir.I64)
		m.NewGlobal("big", elem, init(elem))
		f := m.NewFunc("f", ir.Void)
		ir.NewBuilder(f.NewBlock("entry")).Ret(nil)
		return m
	}
	perPrint := func(m *ir.Module) (string, float64) {
		const reps = 20
		var asm string
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			mm, err := backend.Lower(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			asm = mach.Print(mm, nil)
		}
		runtime.ReadMemStats(&after)
		return asm, float64(after.TotalAlloc-before.TotalAlloc) / reps
	}
	for _, tc := range []struct {
		name string
		init func(ir.Type) ir.Const
	}{
		{"nil", func(ir.Type) ir.Const { return nil }},
		{"zeroconst", func(t ir.Type) ir.Const { return &ir.ZeroConst{Typ: t} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			asm, big := perPrint(module(1<<17, tc.init))
			if n := strings.Count(asm, "\t.zero\t1048576\n"); n != 1 || strings.Contains(asm, ".byte") {
				t.Errorf("want one .zero 1048576 line and no .byte lines, got:\n%s", asm)
			}
			_, small := perPrint(module(1, tc.init))
			if extra := big - small; extra >= 4096 {
				t.Errorf("a 1 MiB zero global cost %.0f bytes per lower+print over a one-element one, budget 4096", extra)
			}
		})
	}
}
