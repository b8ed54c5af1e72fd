package mach_test

import (
	"testing"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/backend/mach"
	"rolag/internal/workloads/tsvc"
)

// TestPrintAllocs is the allocation gate on the assembly printer: it
// allocates per module and per function (block labels), never per
// instruction or operand. Measured on the TSVC kernels unrolled by 8
// and rolled: 2 allocs per module (the text buffer and the exact-size
// result) plus 2 per function whose block labels outgrow the last
// function's.
func TestPrintAllocs(t *testing.T) {
	for _, k := range tsvc.Kernels() {
		res, err := rolag.Build(k.Src, rolag.Config{Name: k.Name, Opt: rolag.OptRoLAG, Unroll: 8, Flatten: true})
		if err != nil {
			t.Fatal(err)
		}
		r, err := backend.Compile(res.Module, nil)
		if err != nil {
			t.Fatal(err)
		}
		insts := 0
		for _, f := range r.Mach.Funcs {
			for _, b := range f.Blocks {
				insts += len(b.Insts)
			}
		}
		budget := 2 + 2*len(r.Mach.Funcs)
		allocs := testing.AllocsPerRun(3, func() { mach.Print(r.Mach, nil) })
		if allocs > float64(budget) {
			t.Errorf("%s: mach.Print (%d funcs, %d insts): %.0f allocs, budget %d", k.Name, len(r.Mach.Funcs), insts, allocs, budget)
		}
	}
}
