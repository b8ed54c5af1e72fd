package obs

import "io"

// Test-only hooks: exported for this package's tests, with no
// caller in the program.

// Fork returns a context with the same ID (and ring and parent) but a
// fresh lane, so spans from a concurrent worker render on their own
// row in the trace view.
func (t TraceContext) Fork() TraceContext {
	if !t.Active() {
		return t
	}
	t.tid = tidCounter.Add(1)
	return t
}

// ResetTrace drops every event buffered in the default ring.
func ResetTrace() { defaultRing.Reset() }

// WriteChromeTrace renders the default ring as Chrome trace-event
// JSON (load it in chrome://tracing or https://ui.perfetto.dev).
func WriteChromeTrace(w io.Writer) error { return defaultRing.WriteChrome(w, "") }
