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

// Guard is consulted around every sandboxed pass execution. The service
// engine implements it with per-pass circuit breakers; a nil Guard
// allows everything.
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
// calling goroutine: every execution takes an ir.Checkpoint of the
// function and, for passes that append globals (RoLAG's codegen creates
// constant tables), marks the module's globals. The IR verifier is the
// commit gate: a panic, a budget overrun (measured after the pass
// returns), or a verifier complaint restores the checkpoint, which puts
// the same block and instruction objects back in their saved state, and
// the pipeline continues with the pass skipped, recorded in the Report.
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
	// Guard, when set, is consulted before and notified after every
	// execution (the service's circuit breakers).
	Guard Guard
	// Trace, when active and tracing is enabled, records every
	// sandboxed pass execution as a "pass:<name>" span on the request's
	// trace (rolagd's /debug/trace). The zero value records nothing.
	Trace obs.TraceContext

	report Degraded
	ck     ir.Checkpoint
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
	if !s.allow(pass, f) {
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
	start := time.Now()
	changed, skip := s.exec(pass, f, run)
	if skip == nil {
		if elapsed := time.Since(start); elapsed > s.budget() {
			skip = &Skip{
				Pass: pass, Func: f.Name, Reason: SkipTimeout,
				Detail: fmt.Sprintf("ran %v, budget %v", elapsed.Round(time.Millisecond), s.budget()),
			}
		}
	}
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

// exec runs the pass body with panic recovery and the pass-site fault
// point, on the function the pass mutates.
func (s *Sandbox) exec(pass string, target *ir.Func, run func(*ir.Func) bool) (changed bool, skip *Skip) {
	defer func() {
		if r := recover(); r != nil {
			changed = false
			skip = &Skip{Pass: pass, Func: target.Name, Reason: SkipPanic, Detail: fmt.Sprint(r)}
		}
	}()
	kind := faultpoint.None
	if faultpoint.Active() { // the site name is built only while injecting
		kind = faultpoint.Fire("pass:"+pass,
			faultpoint.KindPanic, faultpoint.KindStall, faultpoint.KindError, faultpoint.KindCorrupt)
	}
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
	// KindStall already slept inside Fire; the pass still runs so an
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

func (s *Sandbox) allow(pass string, f *ir.Func) bool {
	if s.Guard == nil || s.Guard.Allow(pass) {
		return true
	}
	s.report.Skips = append(s.report.Skips, Skip{
		Pass: pass, Func: f.Name, Reason: SkipBreaker, Detail: "circuit breaker open",
	})
	return false
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
