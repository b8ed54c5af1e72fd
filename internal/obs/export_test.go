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

// Reset drops every buffered event and zeroes the dropped counter.
func (r *TraceRing) Reset() {
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.n = 0
	r.dropped = 0
	r.mu.Unlock()
}

// ResetTrace drops every event buffered in the default ring.
func ResetTrace() { defaultRing.Reset() }

// WriteChromeTrace renders the default ring as Chrome trace-event
// JSON (load it in chrome://tracing or https://ui.perfetto.dev).
func WriteChromeTrace(w io.Writer) error { return defaultRing.WriteChrome(w, "") }

// Len returns the number of collected remarks.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return len(c.remarks)
}

// Parent returns the upstream hop's span ID ("" at the trace root).
func (t TraceContext) Parent() string { return t.parent }
