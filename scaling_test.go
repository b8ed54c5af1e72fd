//go:build unix

package rolag_test

// Scaling gate: IR edits and queries cost what they touch, not the size
// of the function, so doubling a body must not much more than double
// its build time, or for branchy code its bytes allocated.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"rolag"
	"rolag/internal/workloads/tsvc"
)

// maxDoublingRatio bounds time(2n)/time(n), or bytes(2n)/bytes(n):
// linear work doubles, the quadratic edits this gate guards against
// quadruple.
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

// ifChainSource returns one function of n statements
// `if (a[i] > x) { s = s + a[i+1]; a[i] = s; }`: n diamonds in a row,
// so the dominator tree is about n blocks deep.
func ifChainSource(n int) string {
	var b strings.Builder
	b.WriteString("int f(int *a, int x) {\n\tint s = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tif (a[%d] > x) { s = s + a[%d]; a[%d] = s; }\n", i, i+1, i)
	}
	b.WriteString("\treturn s;\n}\n")
	return b.String()
}

// allocBytes returns the bytes the process has allocated so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestBuildScalesLinearly builds each shape at size n and then 2n,
// fail-soft so the verifier's use-list check after every pass is timed
// too, and gates the median of three such rounds' ratios. A timed run
// repeats one size's build for at least runTime of process CPU time and
// yields the mean, which spreads collector cycles evenly; the two sizes
// of a round run back to back, so a noisy moment skews one round, not
// the median. The if-chain shape gates bytes allocated instead of time:
// ir.Func.Preds scans every block, and the verifier's phi check and
// simplify's block merging call it per block, so its time still grows
// fourfold per doubling.
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
		bytes bool // gate bytes allocated, not time
		build func(n int) (string, rolag.Config)
	}{
		{"flat", 2000, false, func(n int) (string, rolag.Config) {
			return flatSource(n), rolag.Config{Opt: rolag.OptRoLAG, FailSoft: true}
		}},
		{"many-locals", 250, false, func(n int) (string, rolag.Config) {
			return manyLocalsSource(n), rolag.Config{Opt: rolag.OptRoLAG, FailSoft: true}
		}},
		{"s1111-unroll", 64, false, func(n int) (string, rolag.Config) {
			return s1111, rolag.Config{Opt: rolag.OptRoLAG, Unroll: n, Flatten: true, FailSoft: true}
		}},
		{"if-chain", 250, true, func(n int) (string, rolag.Config) {
			return ifChainSource(n), rolag.Config{Opt: rolag.OptRoLAG, FailSoft: true}
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			what := "time"
			if sh.bytes {
				what = "bytes allocated"
			}
			var ratios []float64
			for round := 0; round < 3; round++ {
				var per [2]time.Duration
				var perBytes [2]uint64
				for i, n := range []int{sh.n, 2 * sh.n} {
					src, cfg := sh.build(n)
					builds, start, startBytes := 0, cpuTime(t), allocBytes()
					for ; builds == 0 || cpuTime(t)-start < runTime; builds++ {
						if _, err := rolag.Build(src, cfg); err != nil {
							t.Fatalf("n=%d: %v", n, err)
						}
					}
					per[i] = (cpuTime(t) - start) / time.Duration(builds)
					perBytes[i] = (allocBytes() - startBytes) / uint64(builds)
				}
				ratio := float64(per[1]) / float64(per[0])
				if sh.bytes {
					ratio = float64(perBytes[1]) / float64(perBytes[0])
				}
				ratios = append(ratios, ratio)
				t.Logf("round %d: n=%d %v %d B, n=%d %v %d B, %s ratio %.2f",
					round, sh.n, per[0], perBytes[0], 2*sh.n, per[1], perBytes[1], what, ratio)
			}
			sort.Float64s(ratios)
			if median := ratios[1]; median > maxDoublingRatio {
				t.Errorf("doubling n from %d took %.2fx the %s (median of %.2f), want at most %.1fx",
					sh.n, median, what, ratios, maxDoublingRatio)
			}
		})
	}
}
