package rolag_test

// Fail-soft contract: when no pass fails, the sandboxed pipeline must
// produce a module byte-identical to the fail-hard one.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rolag"
	"rolag/internal/workloads/tsvc"
)

// multiFuncSource synthesizes one translation unit with nf functions
// cycling through the corpus shapes that exercise module-level state:
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

// TestFailSoftMatchesFailHard: a nil sandbox (fail-hard) and a real one
// run the same stage code, so when nothing fails the fail-soft module
// must be byte-identical to the fail-hard one and carry no degradation
// report.
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
		t.Run(tc.name, func(t *testing.T) {
			for name, src := range srcs {
				hard, soft := tc.cfg, tc.cfg
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
