// Package rolag is the public facade of the RoLAG reproduction: it
// compiles mini-C source to SSA IR, runs the canonicalization pipeline,
// optionally unrolls loops, applies a loop-(re)rolling technique, and
// reports code sizes under the project's cost models.
//
// The implementation follows "Loop Rolling for Code Size Reduction",
// Rocha, Petoumenos, Franke, Bhatotia, O'Boyle — CGO 2022. The primary
// contribution lives in internal/rolag; the baseline from §II in
// internal/reroll; every supporting substrate (IR, frontend, interpreter,
// cost model, unroller) is implemented from scratch in this repository.
package rolag

import (
	"context"
	"fmt"
	"time"

	"rolag/internal/cc"
	"rolag/internal/costmodel"
	"rolag/internal/interp"
	"rolag/internal/ir"
	"rolag/internal/obs"
	"rolag/internal/passes"
	"rolag/internal/reroll"
	rl "rolag/internal/rolag"
	"rolag/internal/unroll"
)

// Remark re-exports one structured optimization remark (see
// internal/obs): a typed record of a rolling decision with
// function/block/instruction provenance. Collected when
// Config.Remarks is set.
type Remark = obs.Remark

// Optimization selects the loop-(re)rolling technique to apply.
type Optimization int

// Available techniques.
const (
	// OptNone applies no rolling (the evaluation baseline).
	OptNone Optimization = iota
	// OptLLVMReroll applies the LLVM-style loop rerolling of §II.
	OptLLVMReroll
	// OptRoLAG applies the paper's loop rolling for straight-line code.
	OptRoLAG
)

func (o Optimization) String() string {
	switch o {
	case OptNone:
		return "none"
	case OptLLVMReroll:
		return "llvm-reroll"
	case OptRoLAG:
		return "rolag"
	}
	return "unknown"
}

// Options re-exports the RoLAG configuration knobs.
type Options = rl.Options

// Stats re-exports the RoLAG run statistics.
type Stats = rl.Stats

// Degraded re-exports the fail-soft degradation report: which pass
// executions were rolled back and why. See Config.FailSoft.
type Degraded = passes.Degraded

// PassSkip re-exports one entry of a Degraded report.
type PassSkip = passes.Skip

// Guard re-exports the sandbox admission interface (the service
// engine's circuit breakers implement it).
type Guard = passes.Guard

// DefaultOptions returns the paper's full configuration.
func DefaultOptions() *Options { return rl.DefaultOptions() }

// NoSpecialNodes returns the Fig. 19 ablation configuration.
func NoSpecialNodes() *Options { return rl.NoSpecialNodes() }

// Extensions returns the defaults plus the beyond-paper extensions
// (select-based min/max reductions, the paper's §V.C future work).
func Extensions() *Options { return rl.Extensions() }

// Config describes one compilation.
type Config struct {
	// Name is the module name (defaults to "module").
	Name string
	// Unroll, when >= 2, force-unrolls every canonical inner loop by
	// this factor before optimizing (the TSVC methodology of §V.C).
	Unroll int
	// Opt selects the rolling technique.
	Opt Optimization
	// Options configures RoLAG when Opt == OptRoLAG (nil = defaults).
	Options *Options
	// Flatten runs the loop-flattening cleanup after RoLAG, collapsing
	// the inner-loop-in-outer-loop nests left behind when an unrolled
	// loop is rerolled (the improvement §V.C of the paper suggests).
	Flatten bool
	// SkipCleanup disables the post-roll cleanup pipeline.
	SkipCleanup bool
	// CloneInput makes Optimize work on a deep copy of the input module,
	// leaving the caller's module untouched. Result.Module is then owned
	// exclusively by the caller. The compilation service sets this so
	// cached results are immutable.
	CloneInput bool
	// FailSoft runs every pass (and RoLAG itself, per function) under a
	// checkpointed sandbox: a pass that panics, exceeds the per-pass
	// budget, or breaks the IR verifier is rolled back and skipped, the
	// rest of the pipeline continues, and Result.Degraded records what
	// was lost. The output is then correct but potentially larger than a
	// fully healthy pipeline would produce. Each canonicalization stage
	// runs optimistically, under one checkpoint and one verify per
	// function, and is restored and replayed pass by pass only when
	// something in it fails (see passes.Pipeline.RunSandboxed); RoLAG,
	// unroll, reroll and flatten are checkpointed one execution at a
	// time. Frontend errors and a corrupt final module still fail hard.
	FailSoft bool
	// PassBudget is the fail-soft per-pass wall-clock budget
	// (0 = passes.DefaultPassBudget), checked after each pass returns: an
	// over-budget execution is rolled back, never cut short. Ignored
	// unless FailSoft is set.
	PassBudget time.Duration
	// Guard, when set with FailSoft, is consulted before and notified
	// after every sandboxed pass execution; the service engine passes
	// its per-pass circuit breakers here.
	Guard Guard
	// Remarks collects structured optimization remarks: every rolling
	// decision (seed selection, per-node alignment, scheduling
	// rejection, cost verdict, reroll outcome) lands in Result.Remarks
	// with function/block/instruction provenance. The stream is
	// deterministic — byte-identical across runs, in function order —
	// and under FailSoft remarks from rolled-back executions are
	// discarded with the execution, so a "rolled" remark exists iff the
	// roll is in the output. Off (the default) the hot path pays nil
	// checks only.
	Remarks bool
	// Parallelism is ignored; every stage runs serially, in function
	// order, on the caller's goroutine.
	//
	// Deprecated: kept only because benchmark/compile.go reads it.
	Parallelism int
}

// Result is the outcome of one compilation.
type Result struct {
	// Module is the final IR.
	Module *ir.Module
	// SizeBefore and SizeAfter are cost-model text sizes (in bytes)
	// before and after the rolling technique ran, under the profit
	// (TTI-style) model.
	SizeBefore, SizeAfter int
	// BinaryBefore and BinaryAfter are the corresponding sizes under the
	// finer "binary" measurement model, mirroring the paper's
	// object-file measurements.
	BinaryBefore, BinaryAfter int
	// Stats holds RoLAG statistics (nil unless Opt == OptRoLAG).
	Stats *Stats
	// Rerolled counts loops rerolled by the baseline (Opt ==
	// OptLLVMReroll).
	Rerolled int
	// Degraded is the fail-soft degradation report: nil when every pass
	// took effect (or Config.FailSoft was off), otherwise the list of
	// pass executions that were rolled back and skipped.
	Degraded *Degraded
	// Remarks holds the optimization remarks in deterministic emission
	// order (nil unless Config.Remarks).
	Remarks []Remark
}

// Reduction returns the relative binary-size reduction in percent
// (positive = smaller).
func (r *Result) Reduction() float64 {
	if r.BinaryBefore == 0 {
		return 0
	}
	return 100 * float64(r.BinaryBefore-r.BinaryAfter) / float64(r.BinaryBefore)
}

// Compile parses mini-C source and runs the canonicalization pipeline,
// returning the IR module without any rolling applied.
func Compile(src, name string) (*ir.Module, error) {
	if name == "" {
		name = "module"
	}
	m, err := cc.Compile(src, name)
	if err != nil {
		return nil, err
	}
	passes.Standard().Run(m)
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("rolag: internal error: %w", err)
	}
	return m, nil
}

// Build compiles src and applies the configured pipeline.
//
// Unless cfg.CloneInput is set, the returned Result.Module is the very
// module the pipeline mutated; see Optimize for the aliasing contract.
func Build(src string, cfg Config) (*Result, error) {
	return BuildContext(context.Background(), src, cfg)
}

// BuildContext is Build with a deadline/cancellation context. The
// context is checked between pipeline stages and between functions, so
// a cancelled compilation returns ctx.Err() promptly without leaving
// the caller with a half-transformed module it should keep using.
//
// With cfg.FailSoft the canonicalization pipeline already runs under
// the sandbox; frontend (parse/typecheck/lowering) errors still fail
// hard, because without IR there is nothing correct to fall back to.
func BuildContext(ctx context.Context, src string, cfg Config) (*Result, error) {
	name := cfg.Name
	if name == "" {
		name = "module"
	}
	m, err := cc.Compile(src, name)
	if err != nil {
		return nil, err
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("rolag: internal error: %w", err)
	}
	sb := cfg.sandbox(obs.TraceFrom(ctx))
	if err := runStandard(ctx, m, sb); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return optimizeContext(ctx, m, cfg, sb)
}

// sandbox builds one fail-soft sandbox, or returns nil (fail-hard)
// unless cfg.FailSoft is set; tr lets sandboxed pass executions show up
// as spans on the request's trace.
func (cfg Config) sandbox(tr obs.TraceContext) *passes.Sandbox {
	if !cfg.FailSoft {
		return nil
	}
	return &passes.Sandbox{Budget: cfg.PassBudget, Guard: cfg.Guard, Trace: tr}
}

// Optimize applies the configured unrolling and rolling technique to a
// compiled module.
//
// Aliasing: by default the module is transformed IN PLACE and
// Result.Module is the same pointer as the input — callers that need
// the pre-optimization module, or that cache and share Results, must
// either clone first (ir.CloneModule) or set cfg.CloneInput, which
// makes Optimize transform a private deep copy and leave the input
// untouched.
func Optimize(m *ir.Module, cfg Config) (*Result, error) {
	return OptimizeContext(context.Background(), m, cfg)
}

// OptimizeContext is Optimize with a deadline/cancellation context,
// checked between pipeline stages and between functions. When the
// context expires mid-run the input module may already be partially
// transformed (unless cfg.CloneInput is set); the error tells the
// caller to discard it.
func OptimizeContext(ctx context.Context, m *ir.Module, cfg Config) (*Result, error) {
	return optimizeContext(ctx, m, cfg, cfg.sandbox(obs.TraceFrom(ctx)))
}

// optimizeContext is the shared pipeline body. With sb == nil it is the
// fail-hard path: any pass failure propagates (panics unwind, a broken
// module fails the final Verify). With a sandbox every transformation
// stage runs checkpointed and rollback-protected; the final Verify
// remains as a fail-hard backstop, but can only trip if the sandbox
// itself has a bug, since each committed execution was verified.
func optimizeContext(ctx context.Context, m *ir.Module, cfg Config, sb *passes.Sandbox) (*Result, error) {
	if cfg.CloneInput {
		m = ir.CloneModule(m)
	}
	tr := obs.TraceFrom(ctx)
	if cfg.Unroll >= 2 {
		st := obs.Now()
		err := forEachFunc(ctx, m, func(f *ir.Func) {
			sb.RunShadow("unroll", f, func(f *ir.Func) bool {
				return unroll.UnrollAll(f, cfg.Unroll) > 0
			})
		})
		obs.EndSpan(tr, "stage:unroll", st, m.Name)
		if err != nil {
			return nil, err
		}
		if err := runStandard(ctx, m, sb); err != nil {
			return nil, err
		}
		if sb == nil {
			if err := m.Verify(); err != nil {
				return nil, fmt.Errorf("rolag: after unroll: %w", err)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	profit := costmodel.Default()
	binary := costmodel.Binary()
	res := &Result{
		Module:       m,
		SizeBefore:   profit.Module(m),
		BinaryBefore: binary.Module(m),
	}
	// newRec hands one function's execution a private remark collector
	// and the recorder the optimizer writes through; both stay nil —
	// zero hot-path allocations — unless remarks or tracing are on. The
	// collector's remarks join the result only when the execution
	// commits, so under fail-soft remarks from rolled-back attempts
	// vanish with the rollback.
	newRec := func() (*obs.Collector, *obs.Recorder) {
		if !cfg.Remarks && !tr.Active() {
			return nil, nil
		}
		var c *obs.Collector
		if cfg.Remarks {
			c = &obs.Collector{}
		}
		return c, &obs.Recorder{Remarks: c, Trace: tr}
	}
	switch cfg.Opt {
	case OptNone:
	case OptLLVMReroll:
		st := obs.Now()
		err := forEachFunc(ctx, m, func(f *ir.Func) {
			// n and the collector c count only when the execution
			// committed.
			c, rec := newRec()
			var n int
			if _, ok := sb.RunShadow("reroll", f, func(f *ir.Func) bool {
				n = reroll.RerollFuncObs(f, rec)
				return n > 0
			}); ok {
				res.Rerolled += n
				res.Remarks = append(res.Remarks, c.Remarks()...)
			}
		})
		obs.EndSpan(tr, "stage:reroll", st, m.Name)
		if err != nil {
			return nil, err
		}
	case OptRoLAG:
		spanStart := obs.Now()
		opts := cfg.Options
		if opts == nil {
			opts = rl.DefaultOptions()
		}
		res.Stats = rl.NewStats()
		err := forEachFunc(ctx, m, func(f *ir.Func) {
			// RoLAG appends constant-table globals to m, which a
			// rollback resets along with the function body.
			c, rec := newRec()
			var st *rl.Stats
			if _, ok := sb.RunInPlaceIn("rolag", f, m, func(f *ir.Func) bool {
				st = rl.RollFuncInto(f, opts, nil, m, rec)
				return st.LoopsRolled > 0
			}); ok {
				res.Stats.Add(st)
				res.Remarks = append(res.Remarks, c.Remarks()...)
			}
		})
		obs.EndSpan(tr, "stage:rolag", spanStart, m.Name)
		if err != nil {
			return nil, err
		}
		if cfg.Flatten {
			fst := obs.Now()
			err := forEachFunc(ctx, m, func(f *ir.Func) {
				sb.RunShadow("flatten", f, passes.Flatten)
			})
			obs.EndSpan(tr, "stage:flatten", fst, m.Name)
			if err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("rolag: unknown optimization %d", cfg.Opt)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !cfg.SkipCleanup && cfg.Opt != OptNone {
		st := obs.Now()
		if err := runStandard(ctx, m, sb); err != nil {
			return nil, err
		}
		obs.EndSpan(tr, "stage:cleanup", st, m.Name)
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("rolag: after %s: %w", cfg.Opt, err)
	}
	res.SizeAfter = profit.Module(m)
	res.BinaryAfter = binary.Module(m)
	res.Degraded = sb.Report()
	return res, nil
}

// runStandard runs the canonicalization pipeline over the module,
// sandboxed when sb is set.
func runStandard(ctx context.Context, m *ir.Module, sb *passes.Sandbox) error {
	p := passes.Standard()
	return forEachFunc(ctx, m, func(f *ir.Func) {
		p.RunFuncSandboxed(f, sb)
	})
}

// forEachFunc applies work to every defined function of m, in index
// order on the calling goroutine. The context is checked before each
// function.
func forEachFunc(ctx context.Context, m *ir.Module, work func(f *ir.Func)) error {
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		work(f)
	}
	return nil
}

// CheckEquiv verifies behavioural equivalence of one function across two
// modules by interpreting both on seeded inputs (see internal/interp).
func CheckEquiv(orig, xform *ir.Module, fname string, runs int) error {
	return interp.CheckEquiv(orig, xform, fname, runs, nil)
}
