package rolag

import (
	"time"

	"rolag/internal/obs"
)

// Phase identifies one stage of the RoLAG pipeline for timing. Each
// phase is a registered obs span class, so the same timed region feeds
// rolagd's rolagd_phase_seconds metrics and — when tracing is on —
// per-request trace events; both agree on phase boundaries by
// construction. Enable/reset/snapshot live in internal/obs
// (EnableSpanStats, ResetSpanStats, SpanStats); the accounting is safe
// across the service engine's concurrent jobs because the obs counters
// are plain atomics.
type Phase int

// Pipeline phases, in execution order.
const (
	PhaseSeed     Phase = iota // seed-group collection and joining
	PhaseAlign                 // alignment-graph construction
	PhaseSchedule              // scheduling analysis
	PhaseCodegen               // loop generation + profitability check
	NumPhases
)

// String returns the phase's metric label.
func (p Phase) String() string {
	switch p {
	case PhaseSeed:
		return "seed"
	case PhaseAlign:
		return "align"
	case PhaseSchedule:
		return "schedule"
	case PhaseCodegen:
		return "codegen"
	}
	return "unknown"
}

// phaseClasses registers the phases with obs at init time, in phase
// order, so obs.SpanStats() lists them seed/align/schedule/codegen.
var phaseClasses = func() [NumPhases]obs.SpanClass {
	var cs [NumPhases]obs.SpanClass
	for p := PhaseSeed; p < NumPhases; p++ {
		cs[p] = obs.RegisterSpanClass(p.String())
	}
	return cs
}()

// phaseStart returns the start time when span stats or tracing are
// enabled and zero otherwise; pair with phaseEnd. Disabled, the pair
// costs one atomic load each.
func phaseStart() time.Time { return obs.Now() }

func phaseEnd(rec *obs.Recorder, p Phase, start time.Time) {
	phaseClasses[p].End(rec.TraceCtx(), start)
}
