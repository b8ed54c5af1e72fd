//go:build unix

package rolag_test

// Scaling gate: IR edits and queries cost what they touch, not the size
// of the function, so doubling a body must not much more than double
// its build time.

import (
	"fmt"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"rolag"
	"rolag/internal/workloads/tsvc"
)

// maxDoublingRatio bounds time(2n)/time(n): linear work doubles, the
// quadratic edits this gate guards against quadruple.
const maxDoublingRatio = 2.5

// runTime is the least process CPU time one timed run spends building.
const runTime = 300 * time.Millisecond

// cpuTime returns the CPU time the process has used, user and system,
// collector included. Unlike wall time it does not count the time other
// processes hold the CPUs.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// flatSource returns one function of n statements `y = y + x;`. The body
// is flat, so no nesting bound limits it.
func flatSource(n int) string {
	var b strings.Builder
	b.WriteString("int f(int x) {\n\tint y = 0;\n")
	for i := 0; i < n; i++ {
		b.WriteString("\ty = y + x;\n")
	}
	b.WriteString("\treturn y;\n}\n")
	return b.String()
}

// manyLocalsSource returns one function of 8 lanes, each a chain of d
// temporaries `int tK_J = tK_(J-1) op c;` ending in a store to a[K]: 8d
// locals, and an alignment graph about d match nodes deep once the
// stores seed.
func manyLocalsSource(d int) string {
	var b strings.Builder
	b.WriteString("void f(int *a, int x) {\n")
	ops := [...]string{"+", "*", "^"}
	for k := 0; k < 8; k++ {
		fmt.Fprintf(&b, "\tint t%d_0 = x + %d;\n", k, k)
		for j := 1; j < d; j++ {
			fmt.Fprintf(&b, "\tint t%d_%d = t%d_%d %s %d;\n", k, j, k, j-1, ops[j%3], j%7+1)
		}
		fmt.Fprintf(&b, "\ta[%d] = t%d_%d;\n", k, k, d-1)
	}
	b.WriteString("}\n")
	return b.String()
}

// TestBuildScalesLinearly builds each shape at size n and then 2n,
// fail-soft so the verifier's use-list check after every pass is timed
// too, and gates the median of three such rounds' ratios. A timed run
// repeats one size's build for at least runTime of process CPU time and
// yields the mean, which spreads collector cycles evenly; the two sizes
// of a round run back to back, so a noisy moment skews one round, not
// the median.
func TestBuildScalesLinearly(t *testing.T) {
	if raceEnabled {
		t.Skip("timing gate: the race detector's overhead distorts the ratio")
	}
	var s1111 string
	for _, k := range tsvc.Kernels() {
		if k.Name == "s1111" {
			s1111 = k.Src
		}
	}
	shapes := []struct {
		name  string
		n     int
		build func(n int) (string, rolag.Config)
	}{
		{"flat", 2000, func(n int) (string, rolag.Config) {
			return flatSource(n), rolag.Config{Opt: rolag.OptRoLAG, FailSoft: true}
		}},
		{"many-locals", 250, func(n int) (string, rolag.Config) {
			return manyLocalsSource(n), rolag.Config{Opt: rolag.OptRoLAG, FailSoft: true}
		}},
		{"s1111-unroll", 64, func(n int) (string, rolag.Config) {
			return s1111, rolag.Config{Opt: rolag.OptRoLAG, Unroll: n, Flatten: true, FailSoft: true}
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var ratios []float64
			for round := 0; round < 3; round++ {
				var per [2]time.Duration
				for i, n := range []int{sh.n, 2 * sh.n} {
					src, cfg := sh.build(n)
					builds, start := 0, cpuTime(t)
					for ; builds == 0 || cpuTime(t)-start < runTime; builds++ {
						if _, err := rolag.Build(src, cfg); err != nil {
							t.Fatalf("n=%d: %v", n, err)
						}
					}
					per[i] = (cpuTime(t) - start) / time.Duration(builds)
				}
				ratios = append(ratios, float64(per[1])/float64(per[0]))
				t.Logf("round %d: n=%d %v, n=%d %v, ratio %.2f", round, sh.n, per[0], 2*sh.n, per[1], ratios[round])
			}
			sort.Float64s(ratios)
			if median := ratios[1]; median > maxDoublingRatio {
				t.Errorf("doubling n from %d took %.2fx the time (median of %.2f), want at most %.1fx",
					sh.n, median, ratios, maxDoublingRatio)
			}
		})
	}
}
