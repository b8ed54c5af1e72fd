// Command rolagd is the RoLAG compilation daemon: the concurrent
// service engine (internal/service) behind the HTTP surface of
// internal/daemon.
//
// Usage:
//
//	rolagd [-addr :8723] [-workers N] [-cache N] [-max-inflight N]
//	       [-request-timeout 30s] [-shutdown-timeout 10s]
//	       [-pass-budget 10s] [-breaker-threshold 5] [-breaker-cooldown 30s]
//	       [-trace=false] [-trace-buf N] [-log text|json]
//	       [-shard-id a -peers a=http://h1:8723,b=http://h2:8723,...]
//	       [-snapshot /var/lib/rolagd/cache.snapshot] [-snapshot-interval 30s]
//
// Endpoints:
//
//	POST /v1/compile    compile one unit (JSON in, JSON out; see rolagdapi.CompileRequest)
//	POST /v1/batch      compile a whole module/corpus in one request, results in item order
//	GET  /v1/cache/{key} export one cached result to a peer shard (404 on miss; never compiles)
//	GET  /v1/cachestats cache hit/miss/size counters straight from the engine
//	POST /v1/snapshot   force a cache snapshot now (501 unless started with -snapshot)
//	GET  /healthz       liveness plus a metrics summary (JSON); 200 while the process runs
//	GET  /readyz        readiness; 503 while draining or while the rolag breaker is open
//	GET  /metrics       Prometheus text exposition
//	GET  /debug/vars    the same counters as expvar JSON
//	GET  /debug/trace   span ring buffer as Chrome trace-event JSON (chrome://tracing, Perfetto)
//	GET  /debug/pprof   Go runtime profiles
//
// Cluster mode: with -shard-id and -peers, this replica joins a
// consistent-hash ring shared (by construction — every member computes
// it from the same -peers list) with the other replicas and the
// rolag-router. On a local cache miss for a key another shard owns,
// the daemon asks that home shard's cache (GET /v1/cache/{key},
// bounded by daemon.DefaultPeerTimeout) before compiling, so N
// replicas behave as one logical cache. See README.md "Cluster mode".
//
// Warm restart: with -snapshot, the daemon writes its result cache to
// the given file every -snapshot-interval and once more at drain time,
// and loads it back on startup so a restarted replica begins warm. The
// load is all-or-nothing: a truncated, tampered, or cache-key-stale
// snapshot is rejected (rolagd_snapshot_rejected_total) and the daemon
// starts cold instead of serving doubtful bytes.
//
// Tracing: every request is assigned a trace ID (or adopts the caller's
// X-Trace-Id header), echoed back in the X-Trace-Id response header,
// attached to every structured log line, and used to label the request's
// spans — HTTP handling, engine compile, sandboxed passes, pipeline
// stages, and RoLAG phases — in the /debug/trace export. Per-phase
// RoLAG timings are always recorded and exported as
// rolagd_phase_seconds at /metrics.
//
// Overload: when more than -max-inflight requests are in flight the
// daemon sheds with HTTP 429 and a Retry-After header instead of
// queueing unboundedly. A request may bound its own compile time with
// the timeoutMs body field, clamped by -request-timeout.
//
// On SIGINT/SIGTERM the daemon marks /readyz unready, stops accepting
// connections, drains in-flight compilations for up to
// -shutdown-timeout, and exits; /healthz stays 200 until exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rolag/internal/daemon"
	"rolag/internal/obs"
	"rolag/internal/service"
)

// parsePeers decodes "a=http://h1:8723,b=http://h2:8723" into a
// shard-name → base-URL map.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=url)", part)
		}
		out[name] = strings.TrimSuffix(url, "/")
	}
	return out, nil
}

func main() {
	addr := flag.String("addr", ":8723", "listen address")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 4096, "result-cache entries (negative disables caching)")
	maxInFlight := flag.Int("max-inflight", 0, "admission bound before shedding with 429 (0 = 20x workers, at least 32)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-job compile deadline cap (0 = none)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "drain deadline on SIGINT/SIGTERM")
	passBudget := flag.Duration("pass-budget", 0, "fail-soft per-pass wall-clock budget (0 = built-in default)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive pass failures that open its breaker (0 = default)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = default)")
	trace := flag.Bool("trace", true, "record per-request spans (exported at /debug/trace)")
	traceBuf := flag.Int("trace-buf", obs.DefaultTraceCapacity, "span ring-buffer capacity (oldest spans are overwritten)")
	logFormat := flag.String("log", "text", "structured log format: text or json")
	shardID := flag.String("shard-id", "", "this replica's name on the cluster ring (empty = standalone)")
	peersFlag := flag.String("peers", "", "cluster membership as name=url,... (must include -shard-id; identical on every member)")
	snapshotPath := flag.String("snapshot", "", "cache snapshot file for warm restarts (empty = disabled)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "periodic snapshot cadence (0 = default 30s; negative = drain-time only)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "rolagd: unknown -log format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rolagd: %v\n", err)
		os.Exit(2)
	}
	if *shardID != "" {
		if _, ok := peers[*shardID]; !ok {
			fmt.Fprintf(os.Stderr, "rolagd: -shard-id %q is not in -peers\n", *shardID)
			os.Exit(2)
		}
	}

	obs.EnableSpanStats(true)
	obs.SetTraceCapacity(*traceBuf)
	obs.EnableTracing(*trace)
	d := daemon.New(daemon.Config{
		Engine: service.Config{
			Workers:          *workers,
			CacheEntries:     *cache,
			MaxInFlight:      *maxInFlight,
			PassBudget:       *passBudget,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
		},
		RequestCap:       *requestTimeout,
		Log:              logger,
		ShardID:          *shardID,
		Peers:            peers,
		SnapshotPath:     *snapshotPath,
		SnapshotInterval: *snapshotInterval,
	})
	srv := &http.Server{Addr: *addr, Handler: d.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", d.Engine().Workers(),
		"shard", *shardID, "peers", len(peers),
		"trace", *trace)

	select {
	case err := <-errCh:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	d.BeginDrain()
	logger.Info("draining", "timeout", *shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := d.Close(sctx); err != nil {
		logger.Error("engine drain", "err", err)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
