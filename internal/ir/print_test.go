package ir_test

import (
	"testing"

	"rolag"
	"rolag/internal/workloads/tsvc"
)

// TestModuleStringAllocs is the allocation gate on the IR printer: a
// module prints into one buffer sized from an estimate and is copied
// out once, whatever its size. Measured at 2 allocs per module on the
// TSVC kernels unrolled by 8 and rolled.
func TestModuleStringAllocs(t *testing.T) {
	const budget = 3
	for _, k := range tsvc.Kernels() {
		res, err := rolag.Build(k.Src, rolag.Config{Name: k.Name, Opt: rolag.OptRoLAG, Unroll: 8, Flatten: true})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Module
		allocs := testing.AllocsPerRun(3, func() { _ = m.String() })
		if allocs > budget {
			t.Errorf("%s: Module.String (%d bytes): %.0f allocs, budget %d", k.Name, len(m.String()), allocs, budget)
		}
	}
}
