// Package obs is the observability substrate of the pipeline:
// structured optimization remarks, span statistics, and request
// tracing. It is deliberately tiny and imports only the standard
// library and the stdlib-only obs/fleet (it must be importable from
// ir-adjacent packages without cycles) and follows the
// faultpoint discipline for overhead: with every feature disabled —
// the default — an instrumented site pays exactly one atomic load and
// a branch, and allocates nothing.
//
// Three independently-gated features share that one load:
//
//   - Remarks: typed records of optimizer decisions (why a region did
//     or did not roll) carrying function/block/instruction provenance.
//     Remarks are collected per function into plain Collectors (no
//     locks, no timestamps, no pointers) and appended in function
//     order, so streams are byte-identical across runs. Remarks are
//     pulled, not pushed: a nil *Recorder disables them with no global
//     state.
//   - Span stats: per-class duration histograms (the RoLAG phase
//     and backend timers), one process-wide fleet.Hist per class
//     behind the stats gate.
//   - Tracing: per-request trace IDs with wall-clock spans recorded
//     into a bounded in-process ring buffer, exported as Chrome
//     trace-event JSON (rolagd's /debug/trace).
package obs

import (
	"sync/atomic"
	"time"
)

// Feature gates, packed into one word so an instrumented site checks
// everything with a single atomic load.
const (
	gateStats uint32 = 1 << iota
	gateTrace
)

var gates atomic.Uint32

func setGate(bit uint32, on bool) {
	for {
		old := gates.Load()
		nw := old &^ bit
		if on {
			nw = old | bit
		}
		if gates.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Now returns the current time when any time-consuming feature (span
// stats or tracing) is enabled and the zero time otherwise. Pair it
// with SpanClass.End or EndSpan, both of which ignore a zero start, so
// a disabled site costs one atomic load and never calls time.Now.
func Now() time.Time {
	if gates.Load() == 0 {
		return time.Time{}
	}
	return time.Now()
}
