package experiments

import (
	"fmt"

	"rolag"
	"rolag/internal/workloads/programs"
)

// Table1Row is one program's measurement (Table I of the paper).
type Table1Row struct {
	Suite   string
	Name    string
	PaperKB float64
	// PaperRedPct is the paper's reported reduction for side-by-side
	// comparison in EXPERIMENTS.md.
	PaperRedPct float64
	// SizeKB is the synthetic program's binary size (measurement model).
	SizeKB float64
	// ReductionKB is the absolute saving (negative = growth).
	ReductionKB float64
	// ReductionPct is the relative saving.
	ReductionPct float64
	// RolledLoops counts RoLAG's successful (kept) rolls.
	RolledLoops int
	// LLVMRerolled counts the baseline's rerolls (the paper: never
	// triggered on these programs).
	LLVMRerolled int
}

// RunTable1 builds every Table I program stand-in with and without RoLAG
// and reports the deltas. The programs compile side by side.
func RunTable1() ([]Table1Row, error) {
	progs := programs.Table()
	return parallelMap(len(progs), func(i int) (Table1Row, error) {
		p := &progs[i]
		var before, after int
		var rolled, llvm int
		for _, fn := range p.Functions() {
			base, err := rolag.Build(fn.Src, rolag.Config{Name: fn.Name, Opt: rolag.OptNone})
			if err != nil {
				return Table1Row{}, fmt.Errorf("table1 %s/%s: %w", p.Name, fn.Name, err)
			}
			rg, err := rolag.Build(fn.Src, rolag.Config{Name: fn.Name, Opt: rolag.OptRoLAG})
			if err != nil {
				return Table1Row{}, fmt.Errorf("table1 %s/%s (rolag): %w", p.Name, fn.Name, err)
			}
			lv, err := rolag.Build(fn.Src, rolag.Config{Name: fn.Name, Opt: rolag.OptLLVMReroll})
			if err != nil {
				return Table1Row{}, fmt.Errorf("table1 %s/%s (llvm): %w", p.Name, fn.Name, err)
			}
			before += base.BinaryAfter
			after += rg.BinaryAfter
			rolled += rg.Stats.LoopsRolled
			llvm += lv.Rerolled
		}
		row := Table1Row{
			Suite:        p.Suite,
			Name:         p.Name,
			PaperKB:      p.PaperKB,
			PaperRedPct:  p.PaperRedPct,
			SizeKB:       float64(before) / 1024,
			ReductionKB:  float64(before-after) / 1024,
			RolledLoops:  rolled,
			LLVMRerolled: llvm,
		}
		if before > 0 {
			row.ReductionPct = 100 * float64(before-after) / float64(before)
		}
		return row, nil
	})
}
