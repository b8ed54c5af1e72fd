package rolag_test

// Determinism contract of Config.Parallelism: the parallel pipeline
// must produce a module byte-identical to the serial one — including
// the "roll.cdata" constant-table global names, which the parallel
// path stages per function and replays in function order.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rolag"
	"rolag/internal/workloads/tsvc"
)

// multiFuncSource synthesizes one translation unit with nf functions
// cycling through the corpus shapes that matter for the parallel path:
// irregular call runs (these need a mismatch constant pool, so they
// create roll.cdata globals), arithmetic store runs, reductions, and
// plain near-miss code.
func multiFuncSource(seed int64, nf int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("extern void sink2(char *p, int x);\n")
	b.WriteString("extern int ext2(int a, int b) pure;\n")
	for i := 0; i < nf; i++ {
		switch i % 4 {
		case 0: // irregular call run -> mismatch node -> constant pool
			n := 7 + rng.Intn(5)
			stride := 4 * (1 + rng.Intn(7))
			fmt.Fprintf(&b, "void cf%d(char *p) {\n", i)
			for j := 0; j < n; j++ {
				fmt.Fprintf(&b, "\tsink2(p + %d, %d);\n", j*stride, rng.Intn(100000))
			}
			b.WriteString("}\n")
		case 1: // arithmetic-sequence store run
			n := 5 + rng.Intn(10)
			start, step := rng.Intn(50), 1+rng.Intn(9)
			fmt.Fprintf(&b, "void sf%d(int *a, int v) {\n", i)
			for j := 0; j < n; j++ {
				fmt.Fprintf(&b, "\ta[%d] = %d;\n", j, start+j*step)
			}
			b.WriteString("}\n")
		case 2: // reduction chain
			n := 6 + rng.Intn(8)
			fmt.Fprintf(&b, "int rf%d(int *a) {\n\tint acc = 0;\n", i)
			for j := 0; j < n; j++ {
				fmt.Fprintf(&b, "\tacc = acc + a[%d];\n", j)
			}
			b.WriteString("\treturn acc;\n}\n")
		default: // plain code with nothing to roll
			fmt.Fprintf(&b, "int pf%d(int x, int y) {\n\tint t = x * %d;\n\tt = t + y;\n\tt = t ^ %d;\n\treturn ext2(t, x);\n}\n",
				i, 3+rng.Intn(9), rng.Intn(1000))
		}
	}
	return b.String()
}

// TestParallelBuildMatchesSerial: for every pipeline flavor, building
// with Parallelism 8 must be byte-identical to building serially.
func TestParallelBuildMatchesSerial(t *testing.T) {
	src := multiFuncSource(41, 16)
	configs := []struct {
		name string
		cfg  rolag.Config
	}{
		{"rolag", rolag.Config{Opt: rolag.OptRoLAG}},
		{"rolag-failsoft", rolag.Config{Opt: rolag.OptRoLAG, FailSoft: true}},
		{"rolag-flatten-ext", rolag.Config{Opt: rolag.OptRoLAG, Flatten: true, Options: rolag.Extensions()}},
		{"reroll-unroll4", rolag.Config{Opt: rolag.OptLLVMReroll, Unroll: 4}},
		{"reroll-unroll4-failsoft", rolag.Config{Opt: rolag.OptLLVMReroll, Unroll: 4, FailSoft: true}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			serial := tc.cfg
			serial.Parallelism = 1
			sres, err := rolag.Build(src, serial)
			if err != nil {
				t.Fatal(err)
			}
			par := tc.cfg
			par.Parallelism = 8
			pres, err := rolag.Build(src, par)
			if err != nil {
				t.Fatal(err)
			}
			sir, pir := sres.Module.String(), pres.Module.String()
			if sir != pir {
				t.Errorf("parallel module differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", sir, pir)
			}
			if sres.SizeAfter != pres.SizeAfter || sres.BinaryAfter != pres.BinaryAfter {
				t.Errorf("sizes diverge: serial (%d, %d), parallel (%d, %d)",
					sres.SizeAfter, sres.BinaryAfter, pres.SizeAfter, pres.BinaryAfter)
			}
			if sres.Rerolled != pres.Rerolled {
				t.Errorf("Rerolled: serial %d, parallel %d", sres.Rerolled, pres.Rerolled)
			}
			if (sres.Stats == nil) != (pres.Stats == nil) {
				t.Fatalf("stats presence diverges")
			}
			if sres.Stats != nil && sres.Stats.LoopsRolled != pres.Stats.LoopsRolled {
				t.Errorf("LoopsRolled: serial %d, parallel %d", sres.Stats.LoopsRolled, pres.Stats.LoopsRolled)
			}
			if (sres.Degraded == nil) != (pres.Degraded == nil) {
				t.Errorf("degradation reports diverge: serial %v, parallel %v", sres.Degraded, pres.Degraded)
			}
		})
	}
}

// TestParallelReplaysGlobalNames guards the part that makes parallelism
// observable if it breaks: multiple functions must create constant-table
// globals, and the staged parallel run must hand them the exact serial
// names. A run where no function creates a global would pass the
// byte-identity test vacuously, so this test requires the workload to
// roll and to allocate at least two roll.cdata tables.
func TestParallelReplaysGlobalNames(t *testing.T) {
	src := multiFuncSource(41, 16)
	res, err := rolag.Build(src, rolag.Config{Opt: rolag.OptRoLAG, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.LoopsRolled < 2 {
		t.Fatalf("workload rolled too little to exercise staging (stats: %+v)", res.Stats)
	}
	tables := 0
	for _, g := range res.Module.Globals {
		if g.Name == "roll.cdata" || strings.HasPrefix(g.Name, "roll.cdata.") {
			tables++
		}
	}
	if tables < 2 {
		t.Fatalf("want >= 2 roll.cdata constant tables, got %d", tables)
	}
	// GOMAXPROCS-sized pool (negative Parallelism) must agree too.
	neg, err := rolag.Build(src, rolag.Config{Opt: rolag.OptRoLAG, Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	if neg.Module.String() != res.Module.String() {
		t.Error("Parallelism: -1 module differs from Parallelism: 8")
	}
}

// TestFailSoftMatchesFailHard: a nil sandbox (fail-hard) and a real one
// run the same stage code, so when nothing fails the fail-soft module
// must be byte-identical to the fail-hard one, serially and in
// parallel, and carry no degradation report.
func TestFailSoftMatchesFailHard(t *testing.T) {
	srcs := map[string]string{"multi": multiFuncSource(41, 16)}
	for _, k := range tsvc.Kernels() {
		srcs[k.Name] = k.Src
	}
	configs := []struct {
		name string
		cfg  rolag.Config
	}{
		{"rolag", rolag.Config{Opt: rolag.OptRoLAG}},
		{"rolag-unroll8-flatten-ext", rolag.Config{Opt: rolag.OptRoLAG, Unroll: 8, Flatten: true, Options: rolag.Extensions()}},
		{"reroll-unroll4", rolag.Config{Opt: rolag.OptLLVMReroll, Unroll: 4}},
	}
	for _, tc := range configs {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", tc.name, par), func(t *testing.T) {
				for name, src := range srcs {
					hard, soft := tc.cfg, tc.cfg
					hard.Parallelism, soft.Parallelism = par, par
					soft.FailSoft = true
					hres, err := rolag.Build(src, hard)
					if err != nil {
						t.Fatalf("%s fail-hard: %v", name, err)
					}
					sres, err := rolag.Build(src, soft)
					if err != nil {
						t.Fatalf("%s fail-soft: %v", name, err)
					}
					if sres.Degraded != nil {
						t.Errorf("%s: fail-soft run degraded: %v", name, sres.Degraded)
					}
					if h, s := hres.Module.String(), sres.Module.String(); h != s {
						t.Errorf("%s: fail-soft module differs from fail-hard\n--- fail-hard ---\n%s\n--- fail-soft ---\n%s", name, h, s)
					}
				}
			})
		}
	}
}
