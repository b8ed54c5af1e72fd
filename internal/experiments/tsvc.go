// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): the AnghaBench reduction curve and node breakdown
// (Fig. 15, Fig. 16), the MiBench/SPEC program table (Table I), the TSVC
// comparison (Fig. 17, Fig. 18, Fig. 19) and the runtime overhead
// (§V.D). The corpus drivers fan out over the concurrent compilation
// engine (internal/service) by default and keep a serial reference path
// the parallel results are validated against.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"rolag"
	"rolag/internal/interp"
	"rolag/internal/ir"
	rl "rolag/internal/rolag"
	"rolag/internal/service"
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
	// Engine optionally supplies a shared compilation engine; nil makes
	// the run start (and drain) a temporary one.
	Engine *service.Engine
	// Serial forces the original single-threaded facade driver.
	Serial bool
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
	module                    *ir.Module
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

// tsvcConfigs returns the per-kernel configurations of the §V.C
// methodology. The vExt slot is a zero Config unless extensions are on.
func tsvcConfigs(cfg *TSVCConfig, name string, opts, noSpecial, extOpts *rolag.Options) [numVariants]rolag.Config {
	out := [numVariants]rolag.Config{
		vOracle:    {Name: name, Opt: rolag.OptNone},
		vBase:      {Name: name, Unroll: cfg.UnrollFactor, Opt: rolag.OptNone},
		vLLVM:      {Name: name, Unroll: cfg.UnrollFactor, Opt: rolag.OptLLVMReroll},
		vRoLAG:     {Name: name, Unroll: cfg.UnrollFactor, Opt: rolag.OptRoLAG, Options: opts},
		vFlat:      {Name: name, Unroll: cfg.UnrollFactor, Opt: rolag.OptRoLAG, Options: opts, Flatten: true},
		vNoSpecial: {Name: name, Unroll: cfg.UnrollFactor, Opt: rolag.OptRoLAG, Options: noSpecial},
	}
	if cfg.WithExtensions {
		out[vExt] = rolag.Config{Name: name, Unroll: cfg.UnrollFactor, Opt: rolag.OptRoLAG, Options: extOpts}
	}
	return out
}

var variantNames = [numVariants]string{
	vOracle: "oracle", vBase: "base", vLLVM: "llvm", vRoLAG: "rolag",
	vFlat: "flatten", vNoSpecial: "no-special", vExt: "extensions",
}

// RunTSVC reproduces Fig. 17 (per-kernel bars + means), Fig. 18 (oracle
// curve), Fig. 19 (node breakdown + no-special-nodes ablation) and §V.D.
func RunTSVC(cfg TSVCConfig) (*TSVCSummary, error) {
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
	builds := make([][numVariants]tsvcBuild, len(kernels))

	if cfg.Serial {
		for i, kr := range kernels {
			cfgs := tsvcConfigs(&cfg, kr.Name, opts, noSpecial, extOpts)
			for v := 0; v < variants; v++ {
				res, err := rolag.Build(kr.Src, cfgs[v])
				if err != nil {
					return nil, fmt.Errorf("tsvc %s (%s): %w", kr.Name, variantNames[v], err)
				}
				builds[i][v] = tsvcBuild{
					binaryBefore: res.BinaryBefore,
					binaryAfter:  res.BinaryAfter,
					rerolled:     res.Rerolled,
					module:       res.Module,
				}
				if res.Stats != nil {
					builds[i][v].rolled = res.Stats.LoopsRolled
					builds[i][v].nodeCounts = res.Stats.NodeCounts
				}
			}
		}
	} else {
		engine := cfg.Engine
		if engine == nil {
			engine = service.New(service.Config{})
			defer engine.Close(context.Background())
		}
		reqs := make([]service.Request, 0, variants*len(kernels))
		for _, kr := range kernels {
			cfgs := tsvcConfigs(&cfg, kr.Name, opts, noSpecial, extOpts)
			for v := 0; v < variants; v++ {
				req := service.Request{Source: kr.Src, Config: cfgs[v]}
				// §V.D interprets the baseline and rolled modules.
				req.NeedModule = cfg.MeasurePerf && (v == vBase || v == vRoLAG)
				reqs = append(reqs, req)
			}
		}
		items := engine.CompileBatch(context.Background(), reqs)
		for i, kr := range kernels {
			for v := 0; v < variants; v++ {
				item := items[i*variants+v]
				if item.Err != nil {
					return nil, fmt.Errorf("tsvc %s (%s): %w", kr.Name, variantNames[v], item.Err)
				}
				builds[i][v] = tsvcBuild{
					binaryBefore: item.Resp.BinaryBefore,
					binaryAfter:  item.Resp.BinaryAfter,
					rerolled:     item.Resp.Rerolled,
					module:       item.Resp.Module,
				}
				if item.Resp.Stats != nil {
					builds[i][v].rolled = item.Resp.Stats.LoopsRolled
					builds[i][v].nodeCounts = item.Resp.Stats.NodeCounts
				}
			}
		}
	}
	return aggregateTSVC(&cfg, kernels, builds)
}

// aggregateTSVC folds per-kernel builds into the summary. Shared by the
// serial and parallel drivers so both produce identical output for
// identical per-kernel results.
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
