package fuzzgen

import (
	"fmt"
	"runtime/debug"
	"time"

	"rolag"
	"rolag/internal/faultpoint"
	"rolag/internal/interp"
)

// ClassDegraded: the fail-soft Degraded report disagrees with the
// fault-injection ground truth — a fault fired but the result was not
// flagged degraded, or the result claims degradation with no fault.
const ClassDegraded = "degraded"

// ChaosOracle checks the fail-soft pipeline's contract under fault
// injection. For one source program it builds a fault-free reference
// (faults paused), then runs a fail-soft build with the armed fault
// points live, and asserts:
//
//   - no panic escapes the sandbox (zero process crashes),
//   - the degraded output is verifier-clean,
//   - the degraded output is interpreter-equivalent to the reference
//     program — skipping a pass may cost size, never correctness,
//   - Result.Degraded is reported exactly when a fault fired.
//
// Campaigns must be single-threaded: the fault-point subsystem (and
// its Pause) is process-global, and the fired-counter delta attributes
// faults to the one build between reads.
type ChaosOracle struct {
	// Seeds is the number of interpreter input vectors per function
	// (default 3).
	Seeds int
	// MaxSteps bounds each interpreter run (default 2M).
	MaxSteps int64
	// PassBudget is the fail-soft per-pass budget. Keep it well below
	// the armed stall duration so injected stalls are deterministically
	// observed as timeouts, and well above the honest per-pass runtime
	// so nothing degrades without a fault (default 100ms).
	PassBudget time.Duration
}

// DefaultChaosBudget and DefaultChaosStall are the campaign defaults:
// honest passes finish in microseconds and injected stalls last the
// budget plus chaosStallMargin, so every stall overruns the budget by
// construction. Race-detector builds stretch the budget by
// raceDelayScale to keep honest passes under it despite the
// instrumentation slowdown; the stall follows the budget, so a race
// build stalls 1.15s rather than 2.5s.
const (
	DefaultChaosBudget = 100 * time.Millisecond * raceDelayScale
	DefaultChaosStall  = DefaultChaosBudget + chaosStallMargin

	chaosStallMargin = 150 * time.Millisecond
)

func (o *ChaosOracle) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	return 3
}

func (o *ChaosOracle) maxSteps() int64 {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return 2_000_000
}

func (o *ChaosOracle) budget() time.Duration {
	if o.PassBudget > 0 {
		return o.PassBudget
	}
	return DefaultChaosBudget
}

// Check runs one program through the chaos contract under cfg (Opt,
// Unroll, Flatten and Options are honored; the fail-soft knobs are
// overridden). It returns the first violation (nil if clean), whether
// any fault fired during the fail-soft build, and whether the build
// reported degradation.
func (o *ChaosOracle) Check(src string, cfg rolag.Config) (fail *Failure, fired, degraded bool) {
	defer func() {
		if r := recover(); r != nil {
			fail = &Failure{Class: ClassPanic, Variant: "chaos",
				Detail: fmt.Sprintf("%v\n%s", r, debug.Stack())}
		}
		if fail != nil {
			countFailure(fail.Class)
		}
	}()

	// Fault-free reference: the canonical compile of the same program,
	// built with injection paused so it cannot itself degrade.
	resume := faultpoint.Pause()
	ref, err := rolag.Build(src, rolag.Config{Name: "chaos-ref"})
	resume()
	if err != nil {
		counters.skipped.Add(1)
		return nil, false, false
	}
	counters.execs.Add(1)

	cfg.Name = "chaos"
	cfg.FailSoft = true
	cfg.PassBudget = o.budget()
	cfg.Guard = nil

	before := faultpoint.Fired()
	res, err := rolag.Build(src, cfg)
	fired = faultpoint.Fired() > before
	if err != nil {
		// With fail-soft on, the only error paths left are the frontend
		// (the reference compiled, so it cannot trip here) and the final
		// fail-hard verifier backstop — either way a sandbox bug.
		return &Failure{Class: ClassVerify, Variant: "chaos",
			Detail: "fail-soft build errored: " + err.Error()}, fired, false
	}
	degraded = res.Degraded != nil

	if err := res.Module.Verify(); err != nil {
		return &Failure{Class: ClassVerify, Variant: "chaos",
			Detail: "degraded module fails verification: " + err.Error()}, fired, degraded
	}

	if degraded != fired {
		detail := "faults fired but Result.Degraded is nil (source compiled clean despite injection)"
		if degraded {
			detail = fmt.Sprintf("Result.Degraded reports %s but no fault fired", res.Degraded)
		}
		return &Failure{Class: ClassDegraded, Variant: "chaos", Detail: detail}, fired, degraded
	}

	// A degraded result must still mean the same program.
	h := &interp.Harness{MaxSteps: o.maxSteps()}
	for _, fn := range ref.Module.Funcs {
		if fn.IsDecl() {
			continue
		}
		if err := interp.CheckEquiv(ref.Module, res.Module, fn.Name, o.seeds(), h); err != nil {
			return &Failure{Class: ClassEquiv, Variant: "chaos",
				Detail: fmt.Sprintf("@%s: %v", fn.Name, err)}, fired, degraded
		}
	}
	return nil, fired, degraded
}
