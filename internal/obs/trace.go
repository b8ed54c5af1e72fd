package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceContext identifies one traced request. The zero value is
// inactive: spans ended under it record nothing. rolagd mints one per
// HTTP request (honoring a valid incoming X-Trace-Id) and propagates
// it via context through the engine into the pipeline. In a cluster
// the router and every shard carry the same ID, each recording into
// its own ring, and the router's trace collector stitches the
// per-process segments back together by that ID.
type TraceContext struct {
	// ID is the request's trace identifier, echoed in logs, response
	// headers, and trace-event args.
	ID string
	// parent is the span ID of the upstream hop that caused this
	// request (the X-Trace-Parent header), stamped on every span
	// recorded under this context so a stitched trace keeps causality
	// across process boundaries. Empty at the trace root.
	parent string
	// ring is where spans under this context are recorded; nil means
	// the process-default ring. Multi-daemon processes (tests, the
	// loadgen harness) give each daemon its own ring so /debug/trace
	// stays per-"process" even in one address space.
	ring *TraceRing
	// tid is the Chrome trace "thread" lane; fresh per Fork so
	// concurrent work renders on separate rows.
	tid uint64
}

var tidCounter atomic.Uint64

// NewTrace returns an active trace context with the given ID (a fresh
// one is minted when empty). The ID is taken as given — callers
// adopting an untrusted header must sanitize it with AdoptTraceID
// first.
func NewTrace(id string) TraceContext {
	if id == "" {
		id = NewTraceID()
	}
	return TraceContext{ID: id, tid: tidCounter.Add(1)}
}

// NewTraceID mints a random 16-hex-character identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the monotone counter; uniqueness within the
		// process is all the ring buffer needs.
		return fmt.Sprintf("t%015x", tidCounter.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// NewSpanID mints a random 16-hex-character span identifier for one
// cross-process hop (the value sent as X-Trace-Parent).
func NewSpanID() string { return NewTraceID() }

// Trace-ID adoption limits. IDs are opaque hex so log lines, ring
// buffers, and stitched traces cannot be polluted by hostile headers:
// anything non-hex, shorter than 8 or longer than 64 characters is
// rejected and the server re-mints instead.
const (
	minTraceIDLen = 8
	maxTraceIDLen = 64
	spanIDLen     = 16
)

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ValidTraceID reports whether s is an acceptable wire trace ID:
// 8 to 64 lowercase-hex characters.
func ValidTraceID(s string) bool {
	return len(s) >= minTraceIDLen && len(s) <= maxTraceIDLen && isHex(s)
}

// AdoptTraceID sanitizes an untrusted X-Trace-Id header: the value is
// returned unchanged when valid and replaced by the empty string
// (mint a fresh one) otherwise.
func AdoptTraceID(s string) string {
	if ValidTraceID(s) {
		return s
	}
	return ""
}

// ValidSpanID reports whether s is an acceptable wire span ID:
// exactly 16 lowercase-hex characters.
func ValidSpanID(s string) bool { return len(s) == spanIDLen && isHex(s) }

// AdoptSpanID sanitizes an untrusted X-Trace-Parent header: the value
// when valid, empty (no parent) otherwise.
func AdoptSpanID(s string) string {
	if ValidSpanID(s) {
		return s
	}
	return ""
}

// Active reports whether spans under this context are recorded.
func (t TraceContext) Active() bool { return t.tid != 0 }

// Parent returns the upstream hop's span ID ("" at the trace root).
func (t TraceContext) Parent() string { return t.parent }

// WithParent returns a copy whose spans record parent as their parent
// span ID (the adopted X-Trace-Parent header).
func (t TraceContext) WithParent(parent string) TraceContext {
	t.parent = parent
	return t
}

// InRing returns a copy whose spans record into r instead of the
// process-default ring (nil restores the default).
func (t TraceContext) InRing(r *TraceRing) TraceContext {
	t.ring = r
	return t
}

type traceCtxKey struct{}

// WithTrace attaches a trace context to ctx.
func WithTrace(ctx context.Context, t TraceContext) context.Context {
	if !t.Active() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom extracts the trace context from ctx (zero when absent).
func TraceFrom(ctx context.Context) TraceContext {
	t, _ := ctx.Value(traceCtxKey{}).(TraceContext)
	return t
}

// TraceEvent is one completed span in a ring buffer.
type TraceEvent struct {
	Name  string
	Trace string
	TID   uint64
	Start time.Time
	Dur   time.Duration
	// Detail is free-form context (the function name, typically).
	Detail string
	// Span is this event's own span ID — set only on cross-process
	// hops, where the ID was also sent downstream as X-Trace-Parent.
	Span string
	// Parent is the span ID of the hop that caused this event's
	// request ("" at the trace root).
	Parent string
	// Status distinguishes hop outcomes: "", "ok", "error", or
	// "canceled" (a hedge race's losing leg).
	Status string
}

// DefaultTraceCapacity is the ring-buffer size when none is set.
const DefaultTraceCapacity = 16384

// TraceRing is a bounded trace-event buffer: newest events overwrite
// oldest, and every overwrite counts toward Dropped so silent
// incompleteness under load is visible. A mutex (not atomics) is fine
// here — the buffer is touched only when tracing is enabled, which the
// one-load gate already guards. The zero value is ready to use with
// DefaultTraceCapacity.
type TraceRing struct {
	mu      sync.Mutex
	buf     []TraceEvent
	n       int // total events ever added, for overwrite position
	dropped uint64
}

// NewTraceRing returns a ring holding up to capacity events
// (0 or negative = DefaultTraceCapacity).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceRing{buf: make([]TraceEvent, 0, capacity)}
}

// defaultRing is the process-wide ring used by contexts without an
// explicit ring (rolagc, a standalone rolagd).
var defaultRing = &TraceRing{}

// DefaultRing returns the process-wide trace ring.
func DefaultRing() *TraceRing { return defaultRing }

// EnableTracing turns trace-event recording on or off process-wide.
func EnableTracing(on bool) { setGate(gateTrace, on) }

// TracingEnabled reports whether tracing is on.
func TracingEnabled() bool { return gates.Load()&gateTrace != 0 }

// SetTraceCapacity resizes the default ring and clears it (0 restores
// DefaultTraceCapacity).
func SetTraceCapacity(n int) { defaultRing.SetCapacity(n) }

// TraceEvents returns a copy of the default ring's events sorted by
// start time.
func TraceEvents() []TraceEvent { return defaultRing.Events() }

// SetCapacity resizes the ring and clears it (0 restores
// DefaultTraceCapacity). The dropped counter is preserved: resizing is
// an operator action, losing the overflow evidence is not.
func (r *TraceRing) SetCapacity(n int) {
	if n <= 0 {
		n = DefaultTraceCapacity
	}
	r.mu.Lock()
	r.buf = make([]TraceEvent, 0, n)
	r.n = 0
	r.mu.Unlock()
}

// Reset drops every buffered event and zeroes the dropped counter.
func (r *TraceRing) Reset() {
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.n = 0
	r.dropped = 0
	r.mu.Unlock()
}

// Dropped returns how many events have been overwritten before export
// (the rolagd_trace_dropped_total / router_trace_dropped_total series).
func (r *TraceRing) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

func (r *TraceRing) add(ev TraceEvent) {
	r.mu.Lock()
	if cap(r.buf) == 0 {
		r.buf = make([]TraceEvent, 0, DefaultTraceCapacity)
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.n%len(r.buf)] = ev
		r.dropped++
	}
	r.n++
	r.mu.Unlock()
}

// Events returns a copy of the buffered events sorted by start time.
func (r *TraceRing) Events() []TraceEvent {
	r.mu.Lock()
	out := append([]TraceEvent(nil), r.buf...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// EventsFor returns the buffered events belonging to one trace ID,
// sorted by start time.
func (r *TraceRing) EventsFor(traceID string) []TraceEvent {
	r.mu.Lock()
	var out []TraceEvent
	for _, ev := range r.buf {
		if ev.Trace == traceID {
			out = append(out, ev)
		}
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// resolveRing maps a context to the ring its spans land in.
func (t TraceContext) resolveRing() *TraceRing {
	if t.ring != nil {
		return t.ring
	}
	return defaultRing
}

// chromeEvent is the Chrome trace-event wire format ("X" = complete
// event; ts/dur in microseconds). Timestamps are Unix-epoch
// microseconds — an arbitrary epoch as far as the viewer cares, but
// one shared by every process on a machine, so segments recorded by
// different processes stitch into one aligned timeline.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

func toChrome(ev TraceEvent) chromeEvent {
	args := map[string]string{"trace": ev.Trace}
	if ev.Detail != "" {
		args["detail"] = ev.Detail
	}
	if ev.Span != "" {
		args["span"] = ev.Span
	}
	if ev.Parent != "" {
		args["parent"] = ev.Parent
	}
	if ev.Status != "" {
		args["status"] = ev.Status
	}
	return chromeEvent{
		Name: ev.Name,
		Cat:  "rolag",
		Ph:   "X",
		Ts:   float64(ev.Start.UnixNano()) / 1e3,
		Dur:  float64(ev.Dur.Nanoseconds()) / 1e3,
		PID:  1,
		TID:  ev.TID,
		Args: args,
	}
}

// WriteChrome renders the ring's events — all of them, or only one
// trace's when traceID is non-empty — as Chrome trace-event JSON.
func (r *TraceRing) WriteChrome(w io.Writer, traceID string) error {
	var events []TraceEvent
	if traceID == "" {
		events = r.Events()
	} else {
		events = r.EventsFor(traceID)
	}
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: make([]chromeEvent, 0, len(events))}
	for _, ev := range events {
		out.TraceEvents = append(out.TraceEvents, toChrome(ev))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
