package rolagdapi

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"rolag/internal/obs"
	"rolag/internal/obs/fleet"
)

// WriteJSON writes v as the JSON body of a reply with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Middleware is the request wrapper rolagd and rolag-router share. It
// adopts or mints the X-Trace-Id (junk IDs re-mint, junk parents drop),
// threads an obs.TraceContext through the request context so every
// span downstream lands on the request's trace, records the request
// itself as a span, observes the route latency of compiles and
// batches, and logs one structured line per request: compiles and
// batches at Info, probes (health/metrics/debug) at Debug.
type Middleware struct {
	// SpanPrefix prefixes the request path in the request's span name:
	// "http:" for rolagd, "router:" for the router.
	SpanPrefix string
	// LogMsg is the message of the per-request log line.
	LogMsg string
	// Ring receives the request's spans (nil = the process-wide ring).
	Ring *obs.TraceRing
	// Log receives the request log lines (nil = slog.Default()).
	Log *slog.Logger
	// Compile and Batch observe the latency of /v1/compile and
	// /v1/batch requests.
	Compile, Batch *fleet.Hist
}

// Handler registers the runtime-profiling routes on mux (the default
// mux gets them as a side effect of importing net/http/pprof; rolagd
// and the router build their own) and returns mux behind the
// middleware.
func (m *Middleware) Handler(mux *http.ServeMux) http.Handler {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(obs.AdoptTraceID(r.Header.Get("X-Trace-Id")))
		tr = tr.InRing(m.Ring).WithParent(obs.AdoptSpanID(r.Header.Get("X-Trace-Parent")))
		w.Header().Set("X-Trace-Id", tr.ID)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		span := obs.Now()
		start := time.Now()
		mux.ServeHTTP(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
		obs.EndSpan(tr, m.SpanPrefix+r.URL.Path, span, r.Method)
		level := slog.LevelDebug
		switch r.URL.Path {
		case "/v1/compile":
			m.Compile.Observe(time.Since(start))
			level = slog.LevelInfo
		case "/v1/batch":
			m.Batch.Observe(time.Since(start))
			level = slog.LevelInfo
		}
		log := m.Log
		if log == nil {
			log = slog.Default()
		}
		log.Log(r.Context(), level, m.LogMsg,
			"trace", tr.ID,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"elapsed", time.Since(start),
		)
	})
}

// statusWriter captures the response status for the request log line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
