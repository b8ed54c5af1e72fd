package passes

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rolag/internal/faultpoint"
	"rolag/internal/ir"
	"rolag/internal/obs"
)

// SkipReason classifies why the fail-soft sandbox rolled back or
// refused one pass execution.
type SkipReason string

const (
	// SkipPanic: the pass panicked; the function was rolled back.
	SkipPanic SkipReason = "panic"
	// SkipTimeout: the pass exceeded its wall-clock budget.
	SkipTimeout SkipReason = "timeout"
	// SkipVerify: the pass produced IR the verifier rejects.
	SkipVerify SkipReason = "verify"
	// SkipError: the pass reported a failure (injected faults).
	SkipError SkipReason = "error"
	// SkipBreaker: the circuit breaker refused the pass without
	// attempting it.
	SkipBreaker SkipReason = "breaker"
)

// Skip records one pass execution that did not take effect. The
// function it names was left exactly as the previous pass produced it.
type Skip struct {
	// Pass is the pass name ("licm", and the pseudo-passes "rolag",
	// "reroll", "unroll", "flatten").
	Pass string
	// Func is the function the pass was running on.
	Func string
	// Reason is why the execution was discarded.
	Reason SkipReason
	// Detail is a human-readable explanation.
	Detail string
}

func (s Skip) String() string {
	return fmt.Sprintf("%s@%s: %s (%s)", s.Pass, s.Func, s.Reason, s.Detail)
}

// Degraded is the fail-soft report: which pass executions were skipped
// and why. A nil *Degraded means the compilation ran clean; a non-nil
// one means the output is correct but potentially larger than a fully
// healthy pipeline would have produced.
type Degraded struct {
	Skips []Skip
}

// Passes returns the sorted set of distinct skipped pass names.
func (d *Degraded) Passes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range d.Skips {
		if !seen[s.Pass] {
			seen[s.Pass] = true
			out = append(out, s.Pass)
		}
	}
	sort.Strings(out)
	return out
}

func (d *Degraded) String() string {
	var sb strings.Builder
	for i, s := range d.Skips {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(s.String())
	}
	return sb.String()
}

// Guard is consulted around every sandboxed pass visit: one Allow
// before it and, unless Allow refused, one Report once its outcome is
// known. In an optimistic canonicalization stage every Allow of the
// stage comes before its Reports. The service engine implements it
// with per-pass circuit breakers; a nil Guard allows everything.
type Guard interface {
	// Allow reports whether the pass may be attempted. A false return
	// makes the sandbox skip the pass outright (SkipBreaker).
	Allow(pass string) bool
	// Report feeds back the outcome of an attempted execution (true =
	// committed, false = rolled back). It is not called for executions
	// Allow refused.
	Report(pass string, ok bool)
}

// DefaultPassBudget is the per-pass wall-clock budget when
// Sandbox.Budget is zero. It is deliberately generous: on the paper's
// workloads every pass finishes in microseconds, so the budget exists
// only to roll back pathological executions, not to police slow ones.
const DefaultPassBudget = 10 * time.Second

// Sandbox runs passes under checkpoint/rollback, in place and in the
// calling goroutine. A single pass execution (RoLAG, unroll, reroll,
// flatten: RunInPlaceIn) takes an ir.Checkpoint of the function and, for
// passes that append globals (RoLAG's codegen creates constant tables),
// marks the module's globals. The IR verifier is the commit gate: a
// panic, a budget overrun (measured after the pass returns), or a
// verifier complaint restores the checkpoint, which puts the same block
// and instruction objects back in their saved state, and the pipeline
// continues with the pass skipped, recorded in the Report.
//
// A multi-pass canonicalization stage (Pipeline.RunSandboxed) runs
// optimistically: one checkpoint for the whole stage, each pass under
// its own recover, budget check, Guard.Allow and fault draw, then one
// verify. Only when something fails does the stage restore its
// checkpoint and replay pass by pass through the single-execution path
// above, reusing every guard decision and fault draw the optimistic run
// made, so the replay names the culprit exactly as running every pass
// checkpointed would have.
//
// The sandbox owns one checkpoint whose buffers every committed
// execution reuses. A pass is never abandoned mid-run; the caller's
// request deadline bounds the job as a whole.
//
// A nil *Sandbox is the fail-hard mode: passes run directly and their
// panics propagate. A Sandbox is not safe for concurrent use; the
// service engine creates one per compilation job.
type Sandbox struct {
	// Budget is the per-pass wall-clock budget (0 = DefaultPassBudget).
	Budget time.Duration
	// Guard, when set, is consulted once before and notified once after
	// every pass visit (the service's circuit breakers).
	Guard Guard
	// Trace, when active and tracing is enabled, records every
	// sandboxed pass execution as a "pass:<name>" span on the request's
	// trace (rolagd's /debug/trace). The zero value records nothing.
	Trace obs.TraceContext

	report Degraded
	ck     ir.Checkpoint
	visits []visit // the current stage's decisions; every stage reuses the buffer
}

// visit is one pass visit's decisions, each made exactly once: whether
// the guard admitted the pass, the fault drawn at its site, and how
// long an injected stall slept. A stage replay reuses them, so it never
// asks a breaker twice or draws a fault point twice for one visit.
type visit struct {
	allowed bool
	fault   faultpoint.Kind
	stalled time.Duration // charged against the budget, not slept again
}

func (s *Sandbox) budget() time.Duration {
	if s.Budget > 0 {
		return s.Budget
	}
	return DefaultPassBudget
}

// Report returns the accumulated degradation report, or nil if every
// pass took effect or s is nil.
func (s *Sandbox) Report() *Degraded {
	if s == nil || len(s.report.Skips) == 0 {
		return nil
	}
	return &s.report
}

// RunShadow executes a module-pure pass on f under the sandbox; it is
// RunInPlaceIn with no globals sink.
func (s *Sandbox) RunShadow(pass string, f *ir.Func, run func(*ir.Func) bool) (changed, ok bool) {
	return s.RunInPlaceIn(pass, f, nil, run)
}

// RunInPlaceIn executes one pass on f and commits it only if it does not
// panic, finishes within budget, and leaves f verifier-clean; otherwise
// f's body and, when sink is set, the globals appended to sink are
// restored. sink is the module receiving the pass's new globals (f.Parent
// for RoLAG, whose codegen creates constant tables), or nil for a pass
// that adds none. It returns (changed, ok): ok reports that the
// execution was committed (so captured closure state may be read),
// changed is the pass's own report. On a nil receiver the pass runs
// directly and ok is always true.
func (s *Sandbox) RunInPlaceIn(pass string, f *ir.Func, sink *ir.Module, run func(*ir.Func) bool) (changed, ok bool) {
	if f.IsDecl() {
		return false, true
	}
	if s == nil {
		return run(f), true
	}
	return s.runVisit(pass, f, sink, s.decide(pass), run)
}

// decide makes a pass visit's decisions: it asks the guard and, when
// admitted, draws the pass-site fault (a stall sleeps here).
func (s *Sandbox) decide(pass string) visit {
	if s.Guard != nil && !s.Guard.Allow(pass) {
		return visit{}
	}
	v := visit{allowed: true}
	if faultpoint.Active() { // the site name is built only while injecting
		start := time.Now()
		v.fault = faultpoint.Fire("pass:"+pass,
			faultpoint.KindPanic, faultpoint.KindStall, faultpoint.KindError, faultpoint.KindCorrupt)
		if v.fault == faultpoint.KindStall {
			v.stalled = time.Since(start)
		}
	}
	return v
}

// runVisit is one checkpointed execution of a visit already decided:
// checkpoint, attempt, verify, then commit or restore and record the
// skip.
func (s *Sandbox) runVisit(pass string, f *ir.Func, sink *ir.Module, v visit, run func(*ir.Func) bool) (changed, ok bool) {
	if !v.allowed {
		s.refuse(pass, f)
		return false, false
	}
	// Build the span name only while timing is on: a disabled site
	// allocates nothing.
	if span := obs.Now(); !span.IsZero() {
		defer obs.EndSpan(s.Trace, "pass:"+pass, span, f.Name)
	}
	s.ck.Take(f)
	var gmark ir.GlobalsMark
	if sink != nil {
		gmark = sink.MarkGlobals()
	}
	changed, skip := s.attempt(pass, f, v, run)
	if skip == nil {
		if err := f.Verify(); err != nil {
			skip = &Skip{Pass: pass, Func: f.Name, Reason: SkipVerify, Detail: err.Error()}
		}
	}
	if skip != nil {
		s.ck.Restore()
		if sink != nil {
			sink.ResetGlobals(gmark)
		}
		s.fail(pass, *skip)
		return false, false
	}
	s.ok(pass)
	return changed, true
}

// attempt runs the pass body of an admitted visit on f with panic
// recovery, enacts its drawn fault, and checks the budget, charging an
// injected stall. It neither checkpoints nor verifies.
func (s *Sandbox) attempt(pass string, f *ir.Func, v visit, run func(*ir.Func) bool) (changed bool, skip *Skip) {
	start := time.Now()
	changed, skip = s.exec(pass, f, v.fault, run)
	if skip == nil {
		if elapsed := time.Since(start) + v.stalled; elapsed > s.budget() {
			skip = &Skip{
				Pass: pass, Func: f.Name, Reason: SkipTimeout,
				Detail: fmt.Sprintf("ran %v, budget %v", elapsed.Round(time.Millisecond), s.budget()),
			}
		}
	}
	return changed, skip
}

// exec runs the pass body with panic recovery, enacting the fault drawn
// at the pass site, on the function the pass mutates.
func (s *Sandbox) exec(pass string, target *ir.Func, kind faultpoint.Kind, run func(*ir.Func) bool) (changed bool, skip *Skip) {
	defer func() {
		if r := recover(); r != nil {
			changed = false
			skip = &Skip{Pass: pass, Func: target.Name, Reason: SkipPanic, Detail: fmt.Sprint(r)}
		}
	}()
	switch kind {
	case faultpoint.KindPanic:
		panic("faultpoint: injected panic at pass:" + pass)
	case faultpoint.KindError:
		return false, &Skip{Pass: pass, Func: target.Name, Reason: SkipError, Detail: "injected pass error"}
	case faultpoint.KindCorrupt:
		changed = run(target)
		corruptBody(target)
		return changed, nil
	}
	// KindStall already slept in decide; the pass still runs so an
	// absorbed stall (shorter than the budget) degrades nothing.
	return run(target), nil
}

// corruptBody damages the function in a way the verifier is guaranteed
// to reject: it drops the last instruction of the final block, leaving
// the block unterminated.
func corruptBody(f *ir.Func) {
	if len(f.Blocks) == 0 {
		return
	}
	b := f.Blocks[len(f.Blocks)-1]
	if n := len(b.Instrs); n > 0 {
		b.Remove(b.Instrs[n-1])
	}
}

// refuse records a visit the guard refused.
func (s *Sandbox) refuse(pass string, f *ir.Func) {
	s.report.Skips = append(s.report.Skips, Skip{
		Pass: pass, Func: f.Name, Reason: SkipBreaker, Detail: "circuit breaker open",
	})
}

func (s *Sandbox) fail(pass string, sk Skip) {
	s.report.Skips = append(s.report.Skips, sk)
	if s.Guard != nil {
		s.Guard.Report(pass, false)
	}
}

func (s *Sandbox) ok(pass string) {
	if s.Guard != nil {
		s.Guard.Report(pass, true)
	}
}
