package experiments_test

import (
	"testing"

	"rolag/internal/experiments"
)

// TestRunTSVC runs the full suite the way cmd/experiments does
// (extensions and §V.D included) and pins its numbers to the golden.
func TestRunTSVC(t *testing.T) {
	cfg := experiments.DefaultTSVCConfig()
	cfg.MeasurePerf = true
	cfg.WithExtensions = true
	s, err := experiments.RunTSVC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("kernels=%d meanLLVM=%.2f%% meanRoLAG=%.2f%% meanOracle=%.2f%%",
		len(s.Results), s.MeanLLVM, s.MeanRoLAG, s.MeanOracle)
	t.Logf("affected: llvm=%d rolag=%d noSpecial=%d relPerf=%.2f",
		s.AffectedLLVM, s.AffectedRoLAG, s.AffectedNoSpecial, s.RelPerf)
	t.Logf("node counts: %v", s.NodeCounts)
	for i, r := range s.Results {
		if i > 25 {
			break
		}
		t.Logf("%-8s base=%4d llvm=%+6.1f%% rolag=%+6.1f%% oracle=%+6.1f%% (n=%d/%d)",
			r.Name, r.SizeBase, r.RedLLVM(), r.RedRoLAG(), r.RedOracle(), r.LLVMRerolled, r.RoLAGRolled)
	}
	if s.AffectedRoLAG <= s.AffectedLLVM {
		t.Errorf("RoLAG affected %d <= LLVM %d; paper expects RoLAG to apply more broadly", s.AffectedRoLAG, s.AffectedLLVM)
	}
	if s.MeanRoLAG <= s.MeanLLVM {
		t.Errorf("RoLAG mean %.2f <= LLVM mean %.2f", s.MeanRoLAG, s.MeanLLVM)
	}
	if s.MeanOracle <= s.MeanRoLAG {
		t.Errorf("oracle mean %.2f <= RoLAG mean %.2f", s.MeanOracle, s.MeanRoLAG)
	}
	if s.AffectedNoSpecial >= s.AffectedRoLAG {
		t.Errorf("no-special %d >= full %d; special nodes should matter", s.AffectedNoSpecial, s.AffectedRoLAG)
	}
	checkGolden(t, "tsvc", tsvcGolden(s))
}

func TestTSVCExtensions(t *testing.T) {
	cfg := experiments.DefaultTSVCConfig()
	cfg.WithExtensions = true
	cfg.Kernels = []string{"s314", "s316", "s3113", "s000", "s311"}
	s, err := experiments.RunTSVC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full=%d extensions=%d meanExt=%.2f%%", s.AffectedRoLAG, s.AffectedExtensions, s.MeanExtensions)
	if s.AffectedExtensions <= s.AffectedRoLAG {
		t.Errorf("min/max extension should reroll more kernels (%d vs %d): s314/s316/s3113 are max/min loops",
			s.AffectedExtensions, s.AffectedRoLAG)
	}
}
