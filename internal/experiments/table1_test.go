package experiments_test

import (
	"testing"

	"rolag/internal/experiments"
)

func TestRunTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 is slow")
	}
	rows, err := experiments.RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	neg := 0
	for _, r := range rows {
		t.Logf("%-8s %-16s size=%8.1fKB red=%+7.2fKB (%+5.2f%%; paper %+5.2f%%) rolled=%d llvm=%d",
			r.Suite, r.Name, r.SizeKB, r.ReductionKB, r.ReductionPct, r.PaperRedPct, r.RolledLoops, r.LLVMRerolled)
		if r.LLVMRerolled != 0 {
			t.Errorf("%s: LLVM rerolling triggered %d times; paper reports none on full programs", r.Name, r.LLVMRerolled)
		}
		if r.ReductionPct < 0 {
			neg++
		}
		if r.PaperRedPct >= 1.0 && r.ReductionPct <= 0 {
			t.Errorf("%s: paper reports a clear win (%.1f%%), we measured %.2f%%", r.Name, r.PaperRedPct, r.ReductionPct)
		}
	}
	if neg == 0 {
		t.Error("expected at least one regressing program (paper: typeset, sha, xz_s, mcf_s)")
	}
	checkGolden(t, "table1", table1Golden(rows))
}
