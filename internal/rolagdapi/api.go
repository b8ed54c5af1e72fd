// Package rolagdapi holds the rolagd wire types and a small retrying
// HTTP client. The daemon (cmd/rolagd) serves these types, the
// experiment drivers (internal/experiments) consume them, and tests on
// both sides share one definition of the protocol.
package rolagdapi

import (
	"errors"
	"fmt"
	"net/http"

	"rolag"
	"rolag/internal/obs/fleet"
	rl "rolag/internal/rolag"
	"rolag/internal/service"
)

// CompileConfig is the pipeline selection inside a CompileRequest.
type CompileConfig struct {
	Name string `json:"name,omitempty"`
	// Opt is "none", "llvm" or "rolag" (default "rolag").
	Opt            string `json:"opt,omitempty"`
	Unroll         int    `json:"unroll,omitempty"`
	Flatten        bool   `json:"flatten,omitempty"`
	FastMath       bool   `json:"fastMath,omitempty"`
	AlwaysRoll     bool   `json:"alwaysRoll,omitempty"`
	NoSpecialNodes bool   `json:"noSpecialNodes,omitempty"`
	// Extensions enables the beyond-paper min/max reductions.
	Extensions bool `json:"extensions,omitempty"`
}

// CompileRequest is the POST /v1/compile body.
type CompileRequest struct {
	// Source is mini-C, or textual IR when IR is set.
	Source string        `json:"source"`
	IR     bool          `json:"ir,omitempty"`
	Config CompileConfig `json:"config"`
	// EmitIR asks for the final IR text (default true).
	EmitIR *bool `json:"emitIR,omitempty"`
	// TimeoutMs is the caller's per-request compile deadline in
	// milliseconds. The server clamps it to its own -request-timeout
	// cap; zero means the server default applies.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Remarks asks the server to record optimization remarks — one
	// entry per RoLAG/reroll decision — and return them in the
	// response. The stream is deterministic for a given request, so it
	// caches and deduplicates like any other output.
	Remarks bool `json:"remarks,omitempty"`
	// Format asks for an additional lowered output: "asm" lowers the
	// optimized module through the x86-64 backend and returns the
	// assembly text and measured .text size in the response. Empty
	// means no lowering. Like Remarks, the format joins the cache key.
	Format string `json:"format,omitempty"`
}

// CompileResponse is the POST /v1/compile result.
type CompileResponse struct {
	IR           string  `json:"ir,omitempty"`
	SizeBefore   int     `json:"sizeBefore"`
	SizeAfter    int     `json:"sizeAfter"`
	BinaryBefore int     `json:"binaryBefore"`
	BinaryAfter  int     `json:"binaryAfter"`
	Reduction    float64 `json:"reduction"`
	LoopsRolled  int     `json:"loopsRolled"`
	Rerolled     int     `json:"rerolled"`
	CacheHit     bool    `json:"cacheHit"`
	ElapsedMs    float64 `json:"elapsedMs"`
	// Degraded reports a fail-soft compile: one or more passes were
	// rolled back and skipped, so the output is correct but possibly
	// larger than a healthy pipeline would produce. DegradedPasses
	// lists the distinct skipped pass names.
	Degraded       bool     `json:"degraded"`
	DegradedPasses []string `json:"degradedPasses,omitempty"`
	// NodeCounts is the RoLAG alignment-graph node histogram keyed by
	// the numeric rolag.NodeKind (JSON objects keyed by integers
	// marshal with string keys natively). Present only for opt=rolag.
	NodeCounts map[int]int `json:"nodeCounts,omitempty"`
	// Remarks is the optimization-remark stream (only when the request
	// set remarks). Absent, not empty, when no remarks were produced,
	// so responses round-trip the engine result exactly.
	Remarks []rolag.Remark `json:"remarks,omitempty"`
	// Asm is the x86-64 assembly of the optimized module and TextBytes
	// the measured size of its encoded .text section (only when the
	// request set format=asm). TextBytes is counted from real
	// instruction encodings, unlike binaryAfter which is the cost
	// model's estimate.
	Asm       string `json:"asm,omitempty"`
	TextBytes int64  `json:"textBytes,omitempty"`
	// TraceID is the server's X-Trace-Id response header, captured by
	// the client so callers can fetch the request's stitched trace from
	// the router's /debug/trace/{id} collector. Transport metadata, not
	// part of the response body.
	TraceID string `json:"-"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is a stable slug for the errors a client may branch on
	// (CodeBodyTooLarge, CodeReplyTooLarge, CodeUnrollOutOfRange); empty
	// for the rest.
	Code string `json:"code,omitempty"`
}

// MaxBodyBytes bounds the request body rolagd and rolag-router read on
// /v1/compile and /v1/batch. The costliest body within it, one flat
// mini-C function of 1 MiB, builds fail-soft in about 3 s on a 2-vCPU
// x86-64 host, so no accepted request holds a worker for long.
const MaxBodyBytes = 1 << 20

// CodeBodyTooLarge is the Code of the 413 reply to a body over
// MaxBodyBytes.
const CodeBodyTooLarge = "body-too-large"

// MaxUnroll bounds config.unroll. Unrolling replicates every loop body
// factor-1 times, and the pass budget is checked only after the pass
// returns, so an unbounded factor in a ~100-byte request would be an
// unbounded allocation. 16 is twice the paper's factor of 8, the
// largest any workload or test uses.
const MaxUnroll = 16

// CodeUnrollOutOfRange is the Code of the 400 reply (or batch item
// error) for a config.unroll above MaxUnroll.
const CodeUnrollOutOfRange = "unroll-out-of-range"

// codedError is a request error with a stable ErrorResponse.Code.
type codedError struct{ code, msg string }

func (e *codedError) Error() string { return e.msg }

// ErrorCode returns the stable Code of an error ToService returned, or
// "" when it has none.
func ErrorCode(err error) string {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	return ""
}

// BadRequest is the 400 reply body for an error ToService returned.
func BadRequest(err error) ErrorResponse {
	return ErrorResponse{Error: err.Error(), Code: ErrorCode(err)}
}

// CodeReplyTooLarge is the Code of rolag-router's 502 reply when a
// shard's reply exceeds the router's read cap.
const CodeReplyTooLarge = "reply-too-large"

// LimitBody caps r's body at MaxBodyBytes: reading past the cap fails
// with an error BodyTooLarge recognizes.
func LimitBody(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
}

// BodyTooLarge reports whether err came from reading a body past the
// cap LimitBody set.
func BodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// TooLargeResponse is the 413 reply body for a body over MaxBodyBytes.
func TooLargeResponse() ErrorResponse {
	return ErrorResponse{
		Error: fmt.Sprintf("request body exceeds %d bytes", MaxBodyBytes),
		Code:  CodeBodyTooLarge,
	}
}

// BatchRequest is the POST /v1/batch body: one whole module/corpus
// compiled in a single round trip. The daemon fans the items out over
// its worker pool; the router additionally fans them out across shards
// by cache-key ownership. Results always come back in item order.
type BatchRequest struct {
	Items []CompileRequest `json:"items"`
	// TimeoutMs bounds each item's compile (clamped by the server's
	// -request-timeout cap, like CompileRequest.TimeoutMs). Items carry
	// no per-item timeout inside a batch; the batch-level value wins.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// BatchItemResult is one per-function result inside a BatchResponse.
// Exactly one of Error and the embedded CompileResponse payload is
// meaningful: when Error is non-empty the item failed and the other
// fields are zero.
type BatchItemResult struct {
	CompileResponse
	// Error is the item's failure, if any. Batches never fail as a
	// whole on item errors.
	Error string `json:"error,omitempty"`
	// Code is Error's stable slug, as in ErrorResponse.Code.
	Code string `json:"code,omitempty"`
	// Shard is the shard that served this item (router responses only).
	Shard string `json:"shard,omitempty"`
	// FailedOver reports that the item's home shard was unreachable and
	// the router re-routed it to the ring's next shard. Failed-over
	// items are also marked Degraded so existing clients notice without
	// learning a new field; the output is still byte-identical to a
	// serial compile — only the serving shard changed.
	FailedOver bool `json:"failedOver,omitempty"`
}

// BatchResponse is the POST /v1/batch result. Items is index-aligned
// with the request's Items.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
	// Shard identifies the responding daemon (empty from the router,
	// which multiplexes many shards; per-item attribution is in
	// BatchItemResult.Shard).
	Shard     string  `json:"shard,omitempty"`
	ElapsedMs float64 `json:"elapsedMs"`
	// TraceID mirrors CompileResponse.TraceID for batches.
	TraceID string `json:"-"`
}

// captureTraceID lets the client thread the X-Trace-Id response header
// into response types without widening every decode path.
func (r *CompileResponse) captureTraceID(id string) { r.TraceID = id }
func (r *BatchResponse) captureTraceID(id string)   { r.TraceID = id }

// CacheStats is the GET /v1/cachestats body: the daemon's own cache
// counters, so cluster-wide hit rates can be computed from the source
// of truth instead of inferred client-side. From the router the same
// endpoint returns the field-wise sum over all shards plus the
// per-shard breakdown.
type CacheStats struct {
	Shard        string `json:"shard,omitempty"`
	Requests     int64  `json:"requests"`
	CacheHits    int64  `json:"cacheHits"`
	DedupHits    int64  `json:"dedupHits"`
	CacheMisses  int64  `json:"cacheMisses"`
	PeerHits     int64  `json:"peerHits"`
	PeerMisses   int64  `json:"peerMisses"`
	Compiles     int64  `json:"compiles"`
	CacheEntries int    `json:"cacheEntries"`
	// Warm-restart snapshot counters: whole-file saves/loads/rejections,
	// entries restored at startup, and cache hits those restored entries
	// went on to serve. Aggregated fleet-wide by the router like the
	// rest of the struct.
	SnapshotSaves    int64 `json:"snapshotSaves,omitempty"`
	SnapshotLoads    int64 `json:"snapshotLoads,omitempty"`
	SnapshotRejected int64 `json:"snapshotRejected,omitempty"`
	SnapshotEntries  int64 `json:"snapshotEntries,omitempty"`
	SnapshotWarmHits int64 `json:"snapshotWarmHits,omitempty"`
	// Fleet-telemetry fields: request outcomes and per-route request
	// latency as the shard itself observed them. The router's scrape
	// loop differentiates the counters into RED rates and merges the
	// route histograms fleet-wide, so /debug/fleet reports quantiles
	// computed from shard-side truth, not router-side inference.
	Errors       int64  `json:"errors,omitempty"`
	Shed         int64  `json:"shed,omitempty"`
	Degraded     int64  `json:"degraded,omitempty"`
	InFlight     int64  `json:"inFlight,omitempty"`
	TraceDropped uint64 `json:"traceDropped,omitempty"`
	// Routes maps request path ("/v1/compile", "/v1/batch") to the
	// shard's request-latency histogram over fleet.LatencyBounds.
	Routes map[string]fleet.HistSnapshot `json:"routes,omitempty"`
	// Shards is the per-shard breakdown (router responses only).
	Shards []CacheStats `json:"shards,omitempty"`
}

// HitRate returns the fraction of requests answered without a fresh
// compilation: local cache hits, single-flight dedup hits, and entries
// fetched from the key's home shard all count.
func (s *CacheStats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.CacheHits+s.DedupHits+s.PeerHits) / float64(s.Requests)
}

// Add accumulates other into s (used by the router's aggregation).
func (s *CacheStats) Add(other *CacheStats) {
	s.Requests += other.Requests
	s.CacheHits += other.CacheHits
	s.DedupHits += other.DedupHits
	s.CacheMisses += other.CacheMisses
	s.PeerHits += other.PeerHits
	s.PeerMisses += other.PeerMisses
	s.Compiles += other.Compiles
	s.CacheEntries += other.CacheEntries
	s.SnapshotSaves += other.SnapshotSaves
	s.SnapshotLoads += other.SnapshotLoads
	s.SnapshotRejected += other.SnapshotRejected
	s.SnapshotEntries += other.SnapshotEntries
	s.SnapshotWarmHits += other.SnapshotWarmHits
	s.Errors += other.Errors
	s.Shed += other.Shed
	s.Degraded += other.Degraded
	s.InFlight += other.InFlight
	s.TraceDropped += other.TraceDropped
	for route, h := range other.Routes {
		if s.Routes == nil {
			s.Routes = make(map[string]fleet.HistSnapshot, len(other.Routes))
		}
		merged := s.Routes[route]
		merged.Merge(h)
		s.Routes[route] = merged
	}
}

// ToService maps the wire request onto an engine request.
func (cr *CompileRequest) ToService() (service.Request, error) {
	req := service.Request{Source: cr.Source}
	req.EmitIR = cr.EmitIR == nil || *cr.EmitIR
	switch cr.Format {
	case "":
	case service.FormatAsm:
		req.Format = service.FormatAsm
	default:
		return req, fmt.Errorf("unknown format %q (want %q or empty)", cr.Format, service.FormatAsm)
	}
	if cr.Config.Unroll > MaxUnroll {
		return req, &codedError{CodeUnrollOutOfRange,
			fmt.Sprintf("unroll %d exceeds %d", cr.Config.Unroll, MaxUnroll)}
	}
	cfg := rolag.Config{Name: cr.Config.Name, IRInput: cr.IR, Unroll: cr.Config.Unroll, Flatten: cr.Config.Flatten, Remarks: cr.Remarks}
	switch cr.Config.Opt {
	case "none":
		cfg.Opt = rolag.OptNone
	case "llvm":
		cfg.Opt = rolag.OptLLVMReroll
	case "", "rolag":
		cfg.Opt = rolag.OptRoLAG
		opts := rolag.DefaultOptions()
		if cr.Config.NoSpecialNodes {
			opts = rolag.NoSpecialNodes()
		} else if cr.Config.Extensions {
			opts = rolag.Extensions()
		}
		opts.FastMath = cr.Config.FastMath
		opts.AlwaysRoll = cr.Config.AlwaysRoll
		cfg.Options = opts
	default:
		return req, fmt.Errorf("unknown opt %q (want none, llvm or rolag)", cr.Config.Opt)
	}
	req.Config = cfg
	return req, nil
}

// NodeCountsToWire converts a RoLAG node histogram to its wire form.
func NodeCountsToWire(m map[rl.NodeKind]int) map[int]int {
	if len(m) == 0 {
		return nil
	}
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[int(k)] = v
	}
	return out
}

// NodeCountsFromWire is the inverse of NodeCountsToWire.
func NodeCountsFromWire(m map[int]int) map[rl.NodeKind]int {
	out := make(map[rl.NodeKind]int, len(m))
	for k, v := range m {
		out[rl.NodeKind(k)] = v
	}
	return out
}
