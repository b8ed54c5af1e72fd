// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): the AnghaBench reduction curve and node breakdown
// (Fig. 15, Fig. 16), the MiBench/SPEC program table (Table I), the TSVC
// comparison (Fig. 17, Fig. 18, Fig. 19) and the runtime overhead
// (§V.D), plus the calibration of the binary cost model against the
// assembly backend. Every experiment compiles its inputs side by side
// through the fail-hard rolag.Build pipeline (parallelMap), so a
// compile error fails the run instead of moving a number.
package experiments

import (
	"fmt"
	"sort"

	"rolag"
	"rolag/internal/interp"
	"rolag/internal/ir"
	rl "rolag/internal/rolag"
	"rolag/internal/workloads/tsvc"
)

// TSVCResult holds one kernel's outcome in the §V.C methodology.
type TSVCResult struct {
	Name string
	// Sizes under the binary measurement model.
	SizeBase   int // unrolled ×8, no rerolling (the experiment baseline)
	SizeLLVM   int // after LLVM-style rerolling
	SizeRoLAG  int // after RoLAG
	SizeFlat   int // after RoLAG + loop flattening (§V.C's suggested cleanup)
	SizeOracle int // the original rolled source (Fig. 18's oracle)
	// Applied counts.
	LLVMRerolled int
	RoLAGRolled  int
	// Interpreted step counts for §V.D (0 when the kernel needs
	// arguments the perf harness does not synthesize).
	StepsBase  int64
	StepsRoLAG int64
}

// Reduction percentages relative to the unrolled baseline.
func (r *TSVCResult) RedLLVM() float64  { return pct(r.SizeBase, r.SizeLLVM) }
func (r *TSVCResult) RedRoLAG() float64 { return pct(r.SizeBase, r.SizeRoLAG) }

// RedFlat is the reduction with loop flattening after RoLAG.
func (r *TSVCResult) RedFlat() float64   { return pct(r.SizeBase, r.SizeFlat) }
func (r *TSVCResult) RedOracle() float64 { return pct(r.SizeBase, r.SizeOracle) }

func pct(base, after int) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-after) / float64(base)
}

// TSVCSummary aggregates the suite-wide numbers the paper quotes.
type TSVCSummary struct {
	Results []TSVCResult
	// Means across ALL kernels (the paper's 13.69% vs 23.4%).
	MeanLLVM, MeanRoLAG, MeanOracle float64
	// MeanFlat is the suite mean for RoLAG followed by loop flattening.
	MeanFlat float64
	// Kernels affected by each technique (the paper's 38 vs 84).
	AffectedLLVM, AffectedRoLAG int
	// Loops rolled with special nodes disabled (the paper's 19 vs 84,
	// Fig. 19).
	AffectedNoSpecial int
	// MeanNoSpecial is the suite mean with special nodes disabled.
	MeanNoSpecial float64
	// Kernels profitably rolled with the beyond-paper extensions
	// (min/max reductions) enabled.
	AffectedExtensions int
	// MeanExtensions is the suite mean with extensions on.
	MeanExtensions float64
	// Node-kind tally over profitable graphs (Fig. 19).
	NodeCounts map[rl.NodeKind]int
	// §V.D: geometric-mean relative performance of rolled code
	// (paper: ≈0.8, i.e. rolled code is slower).
	RelPerf float64
}

// TSVCConfig tunes the experiment.
type TSVCConfig struct {
	// UnrollFactor applied to every inner loop (paper: 8).
	UnrollFactor int
	// FastMath permits floating-point reassociation, as the paper
	// requires for FP reduction kernels.
	FastMath bool
	// MeasurePerf additionally interprets each kernel to estimate the
	// §V.D slowdown (slower).
	MeasurePerf bool
	// Kernels restricts the run to the named kernels (nil = all).
	Kernels []string
	// WithExtensions additionally measures the beyond-paper extension
	// configuration (min/max reductions).
	WithExtensions bool
}

// DefaultTSVCConfig returns the paper's §V.C setup.
func DefaultTSVCConfig() TSVCConfig {
	return TSVCConfig{UnrollFactor: 8, FastMath: true, MeasurePerf: false}
}

// tsvcBuild is the slice of one compilation the aggregation needs.
type tsvcBuild struct {
	binaryBefore, binaryAfter int
	rerolled                  int
	rolled                    int
	nodeCounts                map[rl.NodeKind]int
	// module is kept only where §V.D interprets it: the vBase and
	// vRoLAG variants under MeasurePerf.
	module *ir.Module
}

// tsvcVariant names one of the per-kernel pipeline configurations, in
// aggregation order.
const (
	vOracle = iota
	vBase
	vLLVM
	vRoLAG
	vFlat
	vNoSpecial
	vExt // only populated when WithExtensions
	numVariants
)

// tsvcPlan applies cfg's defaults and returns the selected kernels, the
// per-kernel configurations of the §V.C methodology, and how many of the
// variants run (vExt only when extensions are on).
func tsvcPlan(cfg *TSVCConfig) ([]tsvc.Kernel, [][numVariants]rolag.Config, int) {
	if cfg.UnrollFactor == 0 {
		cfg.UnrollFactor = 8
	}
	kernels := tsvc.Kernels()
	if cfg.Kernels != nil {
		want := make(map[string]bool)
		for _, n := range cfg.Kernels {
			want[n] = true
		}
		var filtered []tsvc.Kernel
		for _, kr := range kernels {
			if want[kr.Name] {
				filtered = append(filtered, kr)
			}
		}
		kernels = filtered
	}
	opts := rolag.DefaultOptions()
	opts.FastMath = cfg.FastMath
	noSpecial := rolag.NoSpecialNodes()
	noSpecial.FastMath = cfg.FastMath
	extOpts := rolag.Extensions()
	extOpts.FastMath = cfg.FastMath

	variants := numVariants - 1
	if cfg.WithExtensions {
		variants = numVariants
	}
	cfgs := make([][numVariants]rolag.Config, len(kernels))
	for i, kr := range kernels {
		name, unroll := kr.Name, cfg.UnrollFactor
		cfgs[i] = [numVariants]rolag.Config{
			vOracle:    {Name: name, Opt: rolag.OptNone},
			vBase:      {Name: name, Unroll: unroll, Opt: rolag.OptNone},
			vLLVM:      {Name: name, Unroll: unroll, Opt: rolag.OptLLVMReroll},
			vRoLAG:     {Name: name, Unroll: unroll, Opt: rolag.OptRoLAG, Options: opts},
			vFlat:      {Name: name, Unroll: unroll, Opt: rolag.OptRoLAG, Options: opts, Flatten: true},
			vNoSpecial: {Name: name, Unroll: unroll, Opt: rolag.OptRoLAG, Options: noSpecial},
			vExt:       {Name: name, Unroll: unroll, Opt: rolag.OptRoLAG, Options: extOpts},
		}
	}
	return kernels, cfgs, variants
}

var variantNames = [numVariants]string{
	vOracle: "oracle", vBase: "base", vLLVM: "llvm", vRoLAG: "rolag",
	vFlat: "flatten", vNoSpecial: "no-special", vExt: "extensions",
}

// RunTSVC reproduces Fig. 17 (per-kernel bars + means), Fig. 18 (oracle
// curve), Fig. 19 (node breakdown + no-special-nodes ablation) and §V.D.
func RunTSVC(cfg TSVCConfig) (*TSVCSummary, error) {
	kernels, cfgs, variants := tsvcPlan(&cfg)
	builds, err := parallelMap(len(kernels), func(i int) (b [numVariants]tsvcBuild, err error) {
		for v := 0; v < variants; v++ {
			res, err := rolag.Build(kernels[i].Src, cfgs[i][v])
			if err != nil {
				return b, fmt.Errorf("tsvc %s (%s): %w", kernels[i].Name, variantNames[v], err)
			}
			b[v] = newTSVCBuild(&cfg, v, res)
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	return aggregateTSVC(&cfg, kernels, builds)
}

// newTSVCBuild keeps what aggregateTSVC reads of variant v's result.
func newTSVCBuild(cfg *TSVCConfig, v int, res *rolag.Result) tsvcBuild {
	b := tsvcBuild{binaryBefore: res.BinaryBefore, binaryAfter: res.BinaryAfter, rerolled: res.Rerolled}
	if res.Stats != nil {
		b.rolled = res.Stats.LoopsRolled
		b.nodeCounts = res.Stats.NodeCounts
	}
	if cfg.MeasurePerf && (v == vBase || v == vRoLAG) {
		b.module = res.Module
	}
	return b
}

// aggregateTSVC folds per-kernel builds, in kernel order, into the
// summary.
func aggregateTSVC(cfg *TSVCConfig, kernels []tsvc.Kernel, builds [][numVariants]tsvcBuild) (*TSVCSummary, error) {
	summary := &TSVCSummary{NodeCounts: make(map[rl.NodeKind]int)}
	var extSum, noSpecialSum float64
	var perfSum float64
	var perfN int
	for i, kr := range kernels {
		b := &builds[i]
		res := TSVCResult{
			Name:         kr.Name,
			SizeOracle:   b[vOracle].binaryAfter,
			SizeBase:     b[vBase].binaryAfter,
			SizeLLVM:     b[vLLVM].binaryAfter,
			LLVMRerolled: b[vLLVM].rerolled,
			SizeRoLAG:    b[vRoLAG].binaryAfter,
			RoLAGRolled:  b[vRoLAG].rolled,
			SizeFlat:     b[vFlat].binaryAfter,
		}
		if b[vRoLAG].rolled > 0 && b[vRoLAG].binaryAfter < b[vRoLAG].binaryBefore {
			for kk, v := range b[vRoLAG].nodeCounts {
				summary.NodeCounts[kk] += v
			}
		}
		if b[vNoSpecial].rolled > 0 && b[vNoSpecial].binaryAfter < b[vNoSpecial].binaryBefore {
			summary.AffectedNoSpecial++
		}
		noSpecialSum += pct(res.SizeBase, b[vNoSpecial].binaryAfter)
		if cfg.WithExtensions {
			if b[vExt].rolled > 0 && b[vExt].binaryAfter < b[vExt].binaryBefore {
				summary.AffectedExtensions++
			}
			extSum += pct(res.SizeBase, b[vExt].binaryAfter)
		}
		if cfg.MeasurePerf && res.RoLAGRolled > 0 {
			sb, sr, ok := measureSteps(kr, b[vBase].module, b[vRoLAG].module)
			if ok {
				res.StepsBase, res.StepsRoLAG = sb, sr
				if sr > 0 {
					perfSum += float64(sb) / float64(sr)
					perfN++
				}
			}
		}
		if res.LLVMRerolled > 0 && res.SizeLLVM < res.SizeBase {
			summary.AffectedLLVM++
		}
		if res.RoLAGRolled > 0 && res.SizeRoLAG < res.SizeBase {
			summary.AffectedRoLAG++
		}
		summary.Results = append(summary.Results, res)
	}
	n := float64(len(summary.Results))
	for _, r := range summary.Results {
		summary.MeanLLVM += r.RedLLVM() / n
		summary.MeanRoLAG += r.RedRoLAG() / n
		summary.MeanOracle += r.RedOracle() / n
		summary.MeanFlat += r.RedFlat() / n
	}
	if len(summary.Results) > 0 {
		summary.MeanNoSpecial = noSpecialSum / n
	}
	if perfN > 0 {
		summary.RelPerf = perfSum / float64(perfN)
	}
	if cfg.WithExtensions && len(summary.Results) > 0 {
		summary.MeanExtensions = extSum / float64(len(summary.Results))
	}
	// Fig. 17 sorts kernels by RoLAG's reduction.
	sort.SliceStable(summary.Results, func(i, j int) bool {
		return summary.Results[i].RedRoLAG() > summary.Results[j].RedRoLAG()
	})
	return summary, nil
}

// measureSteps interprets the kernel in both modules with the shared
// harness and returns the executed instruction counts.
func measureSteps(kr tsvc.Kernel, baseMod, rolagMod *ir.Module) (int64, int64, bool) {
	h := &interp.Harness{MaxSteps: 5_000_000}
	ob, err := h.Run(baseMod, kr.Func, 1)
	if err != nil {
		return 0, 0, false
	}
	or, err := h.Run(rolagMod, kr.Func, 1)
	if err != nil {
		return 0, 0, false
	}
	return ob.Steps, or.Steps, true
}
