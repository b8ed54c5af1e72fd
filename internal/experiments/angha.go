package experiments

import (
	"fmt"
	"sort"

	"rolag"
	"rolag/internal/obs"
	rl "rolag/internal/rolag"
	"rolag/internal/workloads/angha"
)

// AnghaResult is one corpus function's outcome.
type AnghaResult struct {
	Name      string
	Family    string
	SizeBase  int
	SizeRoLAG int
	SizeLLVM  int
	Rolled    int
}

// Red returns the RoLAG binary-size reduction in percent (negative =
// growth, the paper's false positives).
func (r *AnghaResult) Red() float64 { return pct(r.SizeBase, r.SizeRoLAG) }

// AnghaSummary aggregates the §V.A experiment.
type AnghaSummary struct {
	Total int
	// Affected holds the functions whose size changed under RoLAG,
	// sorted by reduction descending — the Fig. 15 curve.
	Affected []AnghaResult
	// MeanReduction is the average over affected functions (the paper's
	// 9.12%).
	MeanReduction float64
	// BestReduction is the top of the curve (the paper's ~90% KVM field
	// copy).
	BestReduction float64
	// Regressions counts affected functions that grew (profitability
	// false positives).
	Regressions int
	// AffectedLLVM counts functions changed by the reroll baseline (the
	// paper: negligible, <50 of 1M).
	AffectedLLVM int
	// NodeCounts tallies node kinds over profitable graphs — Fig. 16.
	NodeCounts map[rl.NodeKind]int
	// FamilyAffected maps generator family to affected count
	// (diagnostic).
	FamilyAffected map[string]int
	// RejectedByReason tallies every rejected rolling decision across
	// the corpus by its stable reason code (not-profitable,
	// seeds-not-isomorphic, circular-dependence, ...), from the
	// optimization remarks the RoLAG builds record. It explains the gap
	// between candidates and Affected.
	RejectedByReason []obs.ReasonCount
}

// AnghaConfig tunes the corpus run.
type AnghaConfig struct {
	// N is the corpus size (default 2000).
	N int
	// Seed drives the generator.
	Seed int64
}

// anghaBuild is the slice of one compilation the aggregation needs.
type anghaBuild struct {
	binaryAfter int
	rolled      int // RoLAG loops rolled
	nodeCounts  map[rl.NodeKind]int
	rerolled    int // LLVM baseline loops rerolled
	// remarks is the RoLAG build's optimization-remark stream, for the
	// rejected-by-reason aggregation.
	remarks []rolag.Remark
}

// anghaConfigs returns the three per-function pipeline configurations of
// the §V.A experiment, in aggregation order (base, RoLAG, LLVM). The
// RoLAG build records remarks so the summary can break rejections down
// by reason.
func anghaConfigs(name string) [3]rolag.Config {
	return [3]rolag.Config{
		{Name: name, Opt: rolag.OptNone},
		{Name: name, Opt: rolag.OptRoLAG, Remarks: true},
		{Name: name, Opt: rolag.OptLLVMReroll},
	}
}

// RunAngha reproduces Fig. 15 and Fig. 16 on the synthesized corpus.
// The functions compile side by side, each through the fail-hard
// rolag.Build pipeline, so the first failing function fails the run.
func RunAngha(cfg AnghaConfig) (*AnghaSummary, error) {
	if cfg.N == 0 {
		cfg.N = 2000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 20220402 // CGO 2022 presentation date
	}
	funcs := angha.Generate(cfg.N, cfg.Seed)
	builds, err := parallelMap(len(funcs), func(i int) (b [3]anghaBuild, err error) {
		for c, bcfg := range anghaConfigs(funcs[i].Name) {
			res, err := rolag.Build(funcs[i].Src, bcfg)
			if err != nil {
				return b, fmt.Errorf("angha %s (%s): %w", funcs[i].Name, bcfg.Opt, err)
			}
			b[c] = newAnghaBuild(res)
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	return aggregateAngha(funcs, builds), nil
}

// newAnghaBuild keeps what aggregateAngha reads of one build.
func newAnghaBuild(res *rolag.Result) anghaBuild {
	b := anghaBuild{binaryAfter: res.BinaryAfter, rerolled: res.Rerolled, remarks: res.Remarks}
	if res.Stats != nil {
		b.rolled = res.Stats.LoopsRolled
		b.nodeCounts = res.Stats.NodeCounts
	}
	return b
}

// aggregateAngha folds per-function builds, in corpus order, into the
// summary.
func aggregateAngha(funcs []angha.Function, builds [][3]anghaBuild) *AnghaSummary {
	summary := &AnghaSummary{
		Total:          len(funcs),
		NodeCounts:     make(map[rl.NodeKind]int),
		FamilyAffected: make(map[string]int),
	}
	var remarks []rolag.Remark
	for i, fn := range funcs {
		remarks = append(remarks, builds[i][1].remarks...)
		base, rg, lv := builds[i][0], builds[i][1], builds[i][2]
		res := AnghaResult{
			Name:      fn.Name,
			Family:    fn.Family,
			SizeBase:  base.binaryAfter,
			SizeRoLAG: rg.binaryAfter,
			SizeLLVM:  lv.binaryAfter,
			Rolled:    rg.rolled,
		}
		if lv.rerolled > 0 && res.SizeLLVM != res.SizeBase {
			summary.AffectedLLVM++
		}
		if res.Rolled > 0 && res.SizeRoLAG != res.SizeBase {
			summary.Affected = append(summary.Affected, res)
			summary.FamilyAffected[fn.Family]++
			if res.SizeRoLAG < res.SizeBase {
				for k, v := range rg.nodeCounts {
					summary.NodeCounts[k] += v
				}
			} else {
				summary.Regressions++
			}
		}
	}
	sort.SliceStable(summary.Affected, func(i, j int) bool {
		return summary.Affected[i].Red() > summary.Affected[j].Red()
	})
	if len(summary.Affected) > 0 {
		for _, r := range summary.Affected {
			summary.MeanReduction += r.Red()
		}
		summary.MeanReduction /= float64(len(summary.Affected))
		summary.BestReduction = summary.Affected[0].Red()
	}
	summary.RejectedByReason = obs.CountByReason(remarks)
	return summary
}
