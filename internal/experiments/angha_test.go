package experiments_test

import (
	"testing"

	"rolag/internal/experiments"
)

// TestRunAngha runs the corpus at the size and seed of the committed
// records (the AnghaConfig defaults) and pins its numbers to the golden.
func TestRunAngha(t *testing.T) {
	s, err := experiments.RunAngha(experiments.AnghaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("total=%d affected=%d mean=%.2f%% best=%.2f%% regressions=%d llvm=%d",
		s.Total, len(s.Affected), s.MeanReduction, s.BestReduction, s.Regressions, s.AffectedLLVM)
	t.Logf("node counts: %v", s.NodeCounts)
	t.Logf("family affected: %v", s.FamilyAffected)
	if len(s.Affected) == 0 {
		t.Fatal("no affected functions")
	}
	if s.AffectedLLVM >= len(s.Affected)/10 {
		t.Errorf("LLVM rerolling affected %d functions; paper expects orders of magnitude fewer than RoLAG's %d", s.AffectedLLVM, len(s.Affected))
	}
	if s.BestReduction < 60 {
		t.Errorf("best reduction %.1f%% < 60%%; paper's best (KVM field copy) is ~90%%", s.BestReduction)
	}
	if s.MeanReduction < 3 {
		t.Errorf("mean reduction %.2f%% too small", s.MeanReduction)
	}
	checkGolden(t, "angha", anghaGolden(s))
}
