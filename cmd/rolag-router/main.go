// Command rolag-router fronts a fleet of rolagd shards with
// consistent-hash routing (internal/cluster): every compile request is
// forwarded to the shard that owns its content-addressed cache key, so
// each shard's cache serves a disjoint slice of the keyspace and the
// fleet behaves as one large cache.
//
// Usage:
//
//	rolag-router [-addr :8722] -shards a=http://h1:8723,b=http://h2:8723,...
//	             [-timeout 60s] [-log text|json]
//	             [-probe-interval 1s] [-probe-timeout 500ms] [-down-after 3]
//	             [-hedge] [-hedge-min 2ms] [-hedge-max 250ms]
//	             [-trace=false] [-trace-buf N] [-scrape-interval 2s]
//
// Endpoints:
//
//	POST /v1/compile     route one compile to the key's home shard
//	POST /v1/batch       fan a batch across shards by key, results in input order
//	GET  /v1/cachestats  fleet-wide cache counters (aggregate + per shard)
//	GET  /healthz        fleet readiness: ok / degraded / down per shard
//	GET  /metrics        Prometheus text exposition (router_* series)
//	GET  /debug/fleet    aggregated fleet telemetry (per-shard RED + latency, JSON)
//	GET  /debug/trace    the router's own span ring (Chrome trace JSON; ?trace=<id> filters)
//	GET  /debug/trace/{id} one trace stitched across the router and every shard
//	GET  /debug/pprof/*  runtime profiling
//
// When a home shard is unreachable or failing, the router retries the
// request on the ring's next shard and marks the result degraded (the
// "router:failover" marker in degradedPasses). Content addressing makes
// any shard's answer for a key correct, so failover can change latency
// and cache locality but never the bytes of a result.
//
// The router is also the fleet's telemetry plane: a background scrape
// loop pulls every shard's /v1/cachestats into /debug/fleet (per-shard
// RED rates, fleet-merged latency quantiles, hedge/failover counters),
// and /debug/trace/{id} stitches one request's spans across the router
// and every shard into a single Chrome trace with one track per
// process — hedge races show both legs, the loser canceled.
//
// A background prober additionally tracks every shard up/suspect/down
// (router_shard_state): a shard that fails -down-after consecutive
// probes or requests is routed around proactively, costing zero
// connection attempts per request, and rejoins on its next successful
// probe. With -hedge, a compile that the home shard has not answered
// within an adaptive per-shard latency quantile (p95) is raced against
// the key's next successor; the first answer wins (router_hedge_total)
// and the loser is canceled.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"rolag/internal/cluster"
	"rolag/internal/obs"
)

// parseShards decodes "a=http://h1:8723,b=http://h2:8723" into a
// shard-name → base-URL map.
func parseShards(s string) (map[string]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-shards is required (name=url,...)")
	}
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -shards entry %q (want name=url)", part)
		}
		out[name] = strings.TrimSuffix(url, "/")
	}
	return out, nil
}

func main() {
	addr := flag.String("addr", ":8722", "listen address")
	shardsFlag := flag.String("shards", "", "shard membership as name=url,... (same list the shards were started with)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-upstream-request deadline")
	logFormat := flag.String("log", "text", "structured log format: text or json")
	probeInterval := flag.Duration("probe-interval", 0, "background shard health probe cadence (0 = default 1s; negative disables)")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe /readyz deadline (0 = default 500ms)")
	downAfter := flag.Int("down-after", 0, "consecutive failures before a shard is routed around (0 = default 3)")
	hedge := flag.Bool("hedge", false, "hedge slow compiles against the key's next ring successor")
	hedgeMin := flag.Duration("hedge-min", 0, "hedge delay floor (0 = default 2ms)")
	hedgeMax := flag.Duration("hedge-max", 0, "hedge delay ceiling (0 = default 250ms)")
	trace := flag.Bool("trace", true, "record per-request spans (exported at /debug/trace)")
	traceBuf := flag.Int("trace-buf", obs.DefaultTraceCapacity, "span ring-buffer capacity (oldest spans are overwritten)")
	scrapeInterval := flag.Duration("scrape-interval", 0, "fleet-metrics scrape cadence for /debug/fleet (0 = default 2s; negative disables the loop)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "rolag-router: unknown -log format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	shards, err := parseShards(*shardsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rolag-router: %v\n", err)
		os.Exit(2)
	}

	obs.SetTraceCapacity(*traceBuf)
	obs.EnableTracing(*trace)

	rt, err := cluster.New(cluster.Config{
		Shards:         shards,
		HTTPClient:     &http.Client{Timeout: *timeout},
		Log:            logger,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		DownAfter:      *downAfter,
		Hedge:          *hedge,
		HedgeMinDelay:  *hedgeMin,
		HedgeMaxDelay:  *hedgeMax,
		ScrapeInterval: *scrapeInterval,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rolag-router: %v\n", err)
		os.Exit(2)
	}

	logger.Info("routing", "addr", *addr, "shards", len(shards), "hedge", *hedge, "trace", *trace)
	if err := http.ListenAndServe(*addr, rt.Handler()); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
}
