// Package daemon is the rolagd HTTP surface as a library: the service
// engine behind the /v1 API, health/readiness probes, Prometheus
// metrics, request tracing, and — when given a shard identity — the
// cluster endpoints (peer cache export, batch compile, cache stats).
//
// cmd/rolagd is a thin flag-parsing wrapper around this package;
// cmd/rolag-router and cmd/rolag-loadgen embed it to spawn real
// in-process shards for tests and benchmarks, so the daemon every test
// drives is byte-for-byte the daemon production runs.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rolag"
	"rolag/internal/cluster/ring"
	"rolag/internal/obs"
	"rolag/internal/obs/fleet"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
)

// shedRetryAfter is the Retry-After hint (seconds) on 429 replies:
// compiles are fast, so shed load can come back almost immediately.
const shedRetryAfter = 1

// DefaultPeerTimeout bounds one fetch-on-miss peer cache lookup. A
// peer lookup is only worth a small fraction of a fresh compile
// (~2.5 ms/function); past that the shard compiles locally instead of
// waiting on a slow or partitioned peer.
const DefaultPeerTimeout = 250 * time.Millisecond

// DefaultSnapshotInterval is the periodic cache-snapshot cadence when
// Config.SnapshotPath is set without an explicit interval.
const DefaultSnapshotInterval = 30 * time.Second

// Config assembles a daemon.
type Config struct {
	// Engine sizes the compilation engine. Config.PeerFetch is
	// overwritten when the daemon is clustered (ShardID set); set the
	// hook here only for standalone daemons that want a custom tier.
	Engine service.Config
	// RequestCap bounds every compile deadline; a request's timeoutMs
	// is clamped to it (0 = no cap and timeoutMs is used as given).
	RequestCap time.Duration
	// Log receives one structured line per request, tagged with the
	// request's trace ID; nil falls back to slog.Default().
	Log *slog.Logger

	// ShardID names this replica on the cluster's consistent-hash
	// ring. Empty = standalone daemon (no peer cache tier).
	ShardID string
	// Peers maps every shard name (including ShardID) to its base URL.
	// All replicas and the router must share this map — ring ownership
	// is computed independently by each from the same membership.
	Peers map[string]string
	// VNodes is the ring's virtual-node count per shard (0 = default).
	VNodes int
	// PeerTimeout bounds one peer cache fetch (0 = DefaultPeerTimeout).
	PeerTimeout time.Duration

	// SnapshotPath, when set, makes the warm cache survive restarts:
	// the daemon loads the file at startup (a corrupt or stale snapshot
	// is logged, counted, and ignored — the cache starts cold, the
	// process never crashes), rewrites it every SnapshotInterval and on
	// POST /v1/snapshot, and saves once more while draining in Close.
	SnapshotPath string
	// SnapshotInterval is the periodic save cadence
	// (0 = DefaultSnapshotInterval; negative disables the ticker,
	// leaving only drain-time and on-demand saves).
	SnapshotInterval time.Duration

	// TraceRing, when set, is where this daemon's spans are recorded
	// instead of the process-default ring. Multi-daemon processes (the
	// loadgen fleet harness, cluster tests) give each shard its own
	// ring so /debug/trace stays per-shard and the router's trace
	// collector can stitch genuinely distinct segments.
	TraceRing *obs.TraceRing
}

// Daemon wires the engine to the HTTP surface and carries the drain
// flag that splits liveness from readiness.
type Daemon struct {
	engine     *service.Engine
	requestCap time.Duration
	log        *slog.Logger

	shardID     string
	peers       map[string]string
	ring        *ring.Ring
	peerTimeout time.Duration
	peerClient  *http.Client

	snapshotPath string
	snapMu       sync.Mutex // serializes snapshot saves
	snapStop     chan struct{}
	snapOnce     sync.Once

	traceRing *obs.TraceRing
	// routeHists are the per-route request-latency histograms shipped
	// in /v1/cachestats for the router's fleet aggregation. Unlike the
	// engine's compile-latency histogram (fresh compiles only), these
	// observe every request — cache hits included — so they are
	// comparable with what the router observes from outside.
	compileHist fleet.Hist
	batchHist   fleet.Hist

	draining atomic.Bool
	// tooLarge counts requests refused for a body over
	// rolagdapi.MaxBodyBytes (rolagd_rejected_total{reason="body-too-large"}).
	tooLarge atomic.Int64
}

// New builds the engine and its HTTP surface. When cfg.ShardID is set
// the engine's cache misses consult the key's home shard first
// (fetch-on-miss peer caching) before compiling.
func New(cfg Config) *Daemon {
	d := &Daemon{
		requestCap:  cfg.RequestCap,
		log:         cfg.Log,
		shardID:     cfg.ShardID,
		peers:       cfg.Peers,
		peerTimeout: cfg.PeerTimeout,
		traceRing:   cfg.TraceRing,
	}
	if d.peerTimeout <= 0 {
		d.peerTimeout = DefaultPeerTimeout
	}
	ecfg := cfg.Engine
	if cfg.ShardID != "" && len(cfg.Peers) > 1 {
		d.ring = ring.New(cfg.VNodes)
		for name := range cfg.Peers {
			d.ring.Add(name)
		}
		d.peerClient = &http.Client{Timeout: d.peerTimeout}
		ecfg.PeerFetch = d.peerFetch
	}
	d.engine = service.New(ecfg)
	if cfg.SnapshotPath != "" {
		d.snapshotPath = cfg.SnapshotPath
		if n, err := d.engine.LoadSnapshotFile(cfg.SnapshotPath); err != nil {
			d.logger().Warn("cache snapshot rejected, starting cold",
				"shard", d.shardID, "path", cfg.SnapshotPath, "err", err)
		} else if n > 0 {
			d.logger().Info("cache snapshot loaded",
				"shard", d.shardID, "path", cfg.SnapshotPath, "entries", n)
		}
		d.snapStop = make(chan struct{})
		interval := cfg.SnapshotInterval
		if interval == 0 {
			interval = DefaultSnapshotInterval
		}
		if interval > 0 {
			go d.snapshotLoop(interval)
		}
	}
	return d
}

// snapshotLoop periodically rewrites the snapshot until Close.
func (d *Daemon) snapshotLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.snapStop:
			return
		case <-t.C:
			if _, err := d.SaveSnapshotNow(); err != nil {
				d.logger().Warn("periodic cache snapshot failed",
					"shard", d.shardID, "err", err)
			}
		}
	}
}

// SaveSnapshotNow writes the cache to SnapshotPath (atomically, via
// temp file + rename) and returns the number of entries written.
func (d *Daemon) SaveSnapshotNow() (int, error) {
	if d.snapshotPath == "" {
		return 0, errors.New("daemon: no snapshot path configured")
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	return d.engine.SaveSnapshotFile(d.snapshotPath, d.shardID)
}

// Engine exposes the underlying compilation engine (metrics, close).
func (d *Daemon) Engine() *service.Engine { return d.engine }

// ShardID returns the daemon's cluster identity ("" when standalone).
func (d *Daemon) ShardID() string { return d.shardID }

// Close drains the engine (see service.Engine.Close) after stopping
// the snapshot ticker and taking one final drain-time snapshot, so a
// graceful restart always resumes from the freshest possible cache.
func (d *Daemon) Close(ctx context.Context) error {
	if d.snapStop != nil {
		d.snapOnce.Do(func() { close(d.snapStop) })
		if n, err := d.SaveSnapshotNow(); err != nil {
			d.logger().Warn("drain-time cache snapshot failed", "shard", d.shardID, "err", err)
		} else {
			d.logger().Info("drain-time cache snapshot saved", "shard", d.shardID, "entries", n)
		}
	}
	return d.engine.Close(ctx)
}

// Crash terminates the daemon the way a dead process would: the
// snapshot ticker stops, in-flight work is abandoned, and — unlike
// Close — no drain-time snapshot is written. After a Crash, warm
// restart depends entirely on the last periodic snapshot, which is
// exactly the property the chaos harness exists to prove.
func (d *Daemon) Crash() {
	if d.snapStop != nil {
		d.snapOnce.Do(func() { close(d.snapStop) })
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d.engine.Close(ctx)
}

func (d *Daemon) logger() *slog.Logger {
	if d.log != nil {
		return d.log
	}
	return slog.Default()
}

// BeginDrain flips /readyz to 503. Called when shutdown starts, before
// the listener closes, so load balancers stop routing here first.
func (d *Daemon) BeginDrain() { d.draining.Store(true) }

// peerFetch is the engine's fetch-on-miss hook: when this shard is not
// the key's home, ask the home shard's cache before compiling. It only
// ever reads the peer's cache (GET /v1/cache/{key} never compiles), so
// lookups cannot recurse across the cluster. Any failure — peer down,
// timeout, 404 — degrades silently to a local compile.
func (d *Daemon) peerFetch(ctx context.Context, key string) (*service.CacheEntry, bool) {
	home := d.ring.Owner(key)
	if home == d.shardID || home == "" {
		return nil, false
	}
	base, ok := d.peers[home]
	if !ok {
		return nil, false
	}
	fctx, cancel := context.WithTimeout(ctx, d.peerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, base+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, false
	}
	// The peer lookup is a cross-process hop: it carries the trace ID
	// plus its own span ID as X-Trace-Parent, so the peer's spans
	// attach under this hop in the stitched trace. hopSpan allocates
	// only when tracing is on (span is the zero time otherwise).
	tr := obs.TraceFrom(ctx)
	span := obs.Now()
	var hopID string
	if tr.Active() {
		req.Header.Set("X-Trace-Id", tr.ID)
		if !span.IsZero() && obs.TracingEnabled() {
			hopID = obs.NewSpanID()
			req.Header.Set("X-Trace-Parent", hopID)
		}
	}
	hopDone := func(status string) {
		obs.EndHopSpan(tr, "peer:"+home, span, hopID, "/v1/cache", status)
	}
	resp, err := d.peerClient.Do(req)
	if err != nil {
		hopDone("error")
		return nil, true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		hopDone("error")
		return nil, true
	}
	var ce service.CacheEntry
	if err := json.NewDecoder(resp.Body).Decode(&ce); err != nil {
		hopDone("error")
		return nil, true
	}
	hopDone("ok")
	return &ce, true
}

// effectiveTimeout resolves a request's timeoutMs against the server
// cap: the smaller of the two wins, and with no cap the request value
// is used as-is.
func effectiveTimeout(requestMs int, cap time.Duration) time.Duration {
	reqTO := time.Duration(requestMs) * time.Millisecond
	switch {
	case reqTO <= 0:
		return cap
	case cap > 0 && reqTO > cap:
		return cap
	default:
		return reqTO
	}
}

// errorStatus maps an engine error onto its HTTP status and stamps
// overload headers.
func errorStatus(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, service.ErrOverloaded):
		w.Header().Set("Retry-After", fmt.Sprint(shedRetryAfter))
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrClosed), errors.Is(err, service.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

// toWire maps an engine response onto the shared wire type.
func toWire(resp *service.Response, elapsed time.Duration) rolagdapi.CompileResponse {
	out := rolagdapi.CompileResponse{
		IR:           resp.IR,
		SizeBefore:   resp.SizeBefore,
		SizeAfter:    resp.SizeAfter,
		BinaryBefore: resp.BinaryBefore,
		BinaryAfter:  resp.BinaryAfter,
		Reduction:    (&rolag.Result{BinaryBefore: resp.BinaryBefore, BinaryAfter: resp.BinaryAfter}).Reduction(),
		Rerolled:     resp.Rerolled,
		CacheHit:     resp.CacheHit,
		ElapsedMs:    float64(elapsed) / float64(time.Millisecond),
	}
	if resp.Stats != nil {
		out.LoopsRolled = resp.Stats.LoopsRolled
		out.NodeCounts = rolagdapi.NodeCountsToWire(resp.Stats.NodeCounts)
	}
	if resp.Degraded != nil {
		out.Degraded = true
		out.DegradedPasses = resp.Degraded.Passes()
	}
	out.Remarks = resp.Remarks
	out.Asm = resp.Asm
	out.TextBytes = resp.TextBytes
	return out
}

// decodeBody decodes r's body, capped at rolagdapi.MaxBodyBytes, into v.
// On failure it writes the reply (413 over the cap, else 400) and
// returns false.
func (d *Daemon) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	rolagdapi.LimitBody(w, r)
	err := json.NewDecoder(r.Body).Decode(v)
	switch {
	case err == nil:
		return true
	case rolagdapi.BodyTooLarge(err):
		d.tooLarge.Add(1)
		rolagdapi.WriteJSON(w, http.StatusRequestEntityTooLarge, rolagdapi.TooLargeResponse())
	default:
		rolagdapi.WriteJSON(w, http.StatusBadRequest, rolagdapi.ErrorResponse{Error: "bad request body: " + err.Error()})
	}
	return false
}

func (d *Daemon) handleCompile(w http.ResponseWriter, r *http.Request) {
	var cr rolagdapi.CompileRequest
	if !d.decodeBody(w, r, &cr) {
		return
	}
	req, err := cr.ToService()
	if err != nil {
		rolagdapi.WriteJSON(w, http.StatusBadRequest, rolagdapi.BadRequest(err))
		return
	}
	ctx := r.Context()
	if to := effectiveTimeout(cr.TimeoutMs, d.requestCap); to > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, to)
		defer cancel()
	}
	start := time.Now()
	resp, err := d.engine.Compile(ctx, req)
	if err != nil {
		rolagdapi.WriteJSON(w, errorStatus(w, err), rolagdapi.ErrorResponse{Error: err.Error()})
		return
	}
	rolagdapi.WriteJSON(w, http.StatusOK, toWire(resp, time.Since(start)))
}

// handleBatch compiles a whole module/corpus in one request, fanning
// the items out over the worker pool and returning results in item
// order. Per-item failures land in the item's error field; the batch
// itself only fails on malformed JSON or an empty item list.
func (d *Daemon) handleBatch(w http.ResponseWriter, r *http.Request) {
	var br rolagdapi.BatchRequest
	if !d.decodeBody(w, r, &br) {
		return
	}
	if len(br.Items) == 0 {
		rolagdapi.WriteJSON(w, http.StatusBadRequest, rolagdapi.ErrorResponse{Error: "batch has no items"})
		return
	}
	start := time.Now()
	out := rolagdapi.BatchResponse{
		Items: make([]rolagdapi.BatchItemResult, len(br.Items)),
		Shard: d.shardID,
	}
	// Items whose config fails to map are reported per-item without
	// aborting the batch; the rest compile through the engine.
	reqs := make([]service.Request, 0, len(br.Items))
	idx := make([]int, 0, len(br.Items))
	for i := range br.Items {
		req, err := br.Items[i].ToService()
		if err != nil {
			out.Items[i].Error = err.Error()
			out.Items[i].Code = rolagdapi.ErrorCode(err)
			continue
		}
		reqs = append(reqs, req)
		idx = append(idx, i)
	}
	ctx := r.Context()
	if to := effectiveTimeout(br.TimeoutMs, d.requestCap); to > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, to)
		defer cancel()
	}
	items := d.engine.CompileBatch(ctx, reqs)
	for j, item := range items {
		i := idx[j]
		if item.Err != nil {
			out.Items[i].Error = item.Err.Error()
			continue
		}
		out.Items[i].CompileResponse = toWire(item.Resp, 0)
		out.Items[i].Shard = d.shardID
	}
	out.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	rolagdapi.WriteJSON(w, http.StatusOK, out)
}

// handleCacheExport serves one cache entry to a peer shard (or any
// curious client). It reads only the local cache — a miss is a plain
// 404, never a compile — which is what makes the peer tier safe: no
// fan-out, no recursion, no way for a cold cluster to stampede itself.
func (d *Daemon) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	ce, ok := d.engine.ExportCached(key)
	if !ok {
		rolagdapi.WriteJSON(w, http.StatusNotFound, rolagdapi.ErrorResponse{Error: "key not cached"})
		return
	}
	rolagdapi.WriteJSON(w, http.StatusOK, ce)
}

// obsRing resolves the ring this daemon's spans land in.
func (d *Daemon) obsRing() *obs.TraceRing {
	if d.traceRing != nil {
		return d.traceRing
	}
	return obs.DefaultRing()
}

// CacheStats snapshots the daemon's cache counters in wire form,
// including the fleet-telemetry fields the router's scrape loop
// aggregates (request outcomes, per-route latency histograms, dropped
// trace spans).
func (d *Daemon) CacheStats() rolagdapi.CacheStats {
	s := d.engine.Metrics()
	return rolagdapi.CacheStats{
		Shard:        d.shardID,
		Requests:     s.Requests,
		CacheHits:    s.CacheHits,
		DedupHits:    s.DedupHits,
		CacheMisses:  s.CacheMisses,
		PeerHits:     s.PeerHits,
		PeerMisses:   s.PeerMisses,
		Compiles:     s.Compiles,
		CacheEntries: s.CacheEntries,

		SnapshotSaves:    s.SnapshotSaves,
		SnapshotLoads:    s.SnapshotLoads,
		SnapshotRejected: s.SnapshotRejected,
		SnapshotEntries:  s.SnapshotEntries,
		SnapshotWarmHits: s.SnapshotWarmHits,

		Errors:       s.Errors,
		Shed:         s.Shed,
		Degraded:     s.Degraded,
		InFlight:     s.InFlight,
		TraceDropped: d.obsRing().Dropped(),
		Routes: map[string]fleet.HistSnapshot{
			"/v1/compile": d.compileHist.Snapshot(),
			"/v1/batch":   d.batchHist.Snapshot(),
		},
	}
}

// Handler builds the daemon's routes, runtime profiling included,
// behind the tracing middleware.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", d.handleCompile)
	mux.HandleFunc("POST /v1/batch", d.handleBatch)
	mux.HandleFunc("GET /v1/cache/{key}", d.handleCacheExport)
	mux.HandleFunc("GET /v1/cachestats", func(w http.ResponseWriter, r *http.Request) {
		rolagdapi.WriteJSON(w, http.StatusOK, d.CacheStats())
	})

	// Force a cache snapshot save right now (operators, tests, and the
	// chaos harness). 501 when the daemon runs without a snapshot path.
	mux.HandleFunc("POST /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if d.snapshotPath == "" {
			rolagdapi.WriteJSON(w, http.StatusNotImplemented, rolagdapi.ErrorResponse{Error: "snapshotting not configured (start with -snapshot)"})
			return
		}
		n, err := d.SaveSnapshotNow()
		if err != nil {
			rolagdapi.WriteJSON(w, http.StatusInternalServerError, rolagdapi.ErrorResponse{Error: err.Error()})
			return
		}
		rolagdapi.WriteJSON(w, http.StatusOK, map[string]any{"entries": n, "path": d.snapshotPath})
	})

	// Liveness: the process is up and serving HTTP. Stays 200 through a
	// graceful drain so orchestrators don't kill a draining instance.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		rolagdapi.WriteJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"shard":    d.shardID,
			"draining": d.draining.Load(),
			"metrics":  d.engine.Metrics(),
		})
	})

	// Readiness: whether new traffic should be routed here. 503 while
	// draining or while the core optimization is breaker-dark (served
	// results would silently skip RoLAG).
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		status := http.StatusOK
		state := "ready"
		switch {
		case d.draining.Load():
			status, state = http.StatusServiceUnavailable, "draining"
		case d.engine.Dark():
			status, state = http.StatusServiceUnavailable, "breaker-dark"
		}
		rolagdapi.WriteJSON(w, status, map[string]any{
			"status":   state,
			"breakers": d.engine.Breakers(),
		})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s := d.engine.Metrics()
		s.WritePrometheus(w)
		fmt.Fprintf(w, "# HELP rolagd_trace_dropped_total Trace spans overwritten in the bounded ring before export.\n")
		fmt.Fprintf(w, "# TYPE rolagd_trace_dropped_total counter\nrolagd_trace_dropped_total %d\n", d.obsRing().Dropped())
		fmt.Fprintf(w, "# HELP rolagd_rejected_total Requests refused before compiling, by reason slug.\n")
		fmt.Fprintf(w, "# TYPE rolagd_rejected_total counter\nrolagd_rejected_total{reason=%q} %d\n", rolagdapi.CodeBodyTooLarge, d.tooLarge.Load())
	})

	// expvar.Publish panics on duplicate names; tests and the loadgen
	// build several daemons per process.
	if expvar.Get("rolagd") == nil {
		e := d.engine
		expvar.Publish("rolagd", expvar.Func(func() any { return e.Metrics() }))
	}
	mux.Handle("GET /debug/vars", expvar.Handler())

	// The span ring buffer as Chrome trace-event JSON; load it in
	// chrome://tracing or https://ui.perfetto.dev. ?trace=<id> filters
	// to one trace — the router's stitching collector fetches exactly
	// that from every shard.
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		filter := r.URL.Query().Get("trace")
		if filter != "" && !obs.ValidTraceID(filter) {
			rolagdapi.WriteJSON(w, http.StatusBadRequest, rolagdapi.ErrorResponse{Error: "invalid trace id"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		d.obsRing().WriteChrome(w, filter)
	})

	mw := &rolagdapi.Middleware{SpanPrefix: "http:", LogMsg: "request", Ring: d.traceRing,
		Log: d.log, Compile: &d.compileHist, Batch: &d.batchHist}
	return mw.Handler(mux)
}
