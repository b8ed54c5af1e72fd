// Command rolag-loadgen is the reproducible cluster benchmark: it
// spawns a local N-shard rolagd cluster plus a rolag-router on loopback
// ports, drives open-loop zipfian traffic from the synthesized
// AnghaBench corpus at a configurable arrival rate, and reports request
// latency (p50/p99), aggregate functions/sec, and the cluster-wide
// cache hit rate — taken from the daemons' own /v1/cachestats, not from
// client-side bookkeeping — as JSON.
//
// Usage:
//
//	rolag-loadgen [-shards 3] [-n 400] [-requests 2000] [-rate 200]
//	              [-timeout 30s] [-out results/BENCH_cluster.json]
//	              [-require-peer-hits] [-check baseline.json] [-max-slowdown 3]
//	rolag-loadgen -chaos [flags]   # faulty links + a crash-restarted shard (chaos.go)
//	rolag-loadgen -fleet [flags]   # traced burst + telemetry SLO gates (fleet.go)
//
// All three modes share one harness (harness.go) and one parity rule:
// every reply not degraded by the engine must match, byte for byte, a
// serial reference daemon compiled from the same corpus.
// -require-peer-hits additionally fails the run when the fleet reports
// zero peer-cache hits. With -check, p99 latency, functions/sec, and
// the cluster hit rate are gated against a committed baseline.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"rolag/internal/cluster"
	"rolag/internal/rolagdapi"
)

// Traffic shape and gate thresholds. The committed records in results/
// were made with these values, and no caller runs with others.
const (
	workers      = 2        // engine workers per shard
	seed         = 20220402 // corpus and traffic seed
	zipfS        = 1.2      // zipf exponent for key popularity (>1)
	directFrac   = 0.25     // default mode: share of requests sent to a round-robin shard
	hitRateSlack = 0.2      // -check: allowed absolute hit-rate drop vs the baseline

	traceSample      = 200   // -fleet: stitched traces checked, from the most recent requests
	minTraceComplete = 0.99  // -fleet gate: share of sampled traces that stitch router + ≥1 shard
	fleetP99Ratio    = 3.0   // -fleet gate: allowed router-vs-fleet p99 ratio
	fleetP99FloorMs  = 50.0  // -fleet gate: absolute p99 disagreement allowance, ms
	fleetTraceBuf    = 65536 // -fleet: per-process span ring capacity

	chaosNetProb          = 0.02                   // -chaos: per-link fault probability
	chaosKillFrac         = 0.35                   // -chaos: share of the run before the victim is crashed
	chaosRestartDelay     = 600 * time.Millisecond // -chaos: victim downtime before restart
	chaosSnapshotInterval = 250 * time.Millisecond // -chaos: shard periodic snapshot cadence
	minAvailability       = 0.99                   // -chaos gate: completed/issued must reach this
)

// Schema identifies the BENCH_cluster.json layout; bump on breaking
// changes so -check refuses to compare across layouts.
const Schema = "rolag/cluster-bench/v1"

// Result is the machine-readable record written to -out.
type Result struct {
	Schema string `json:"schema"`
	Config struct {
		runConfig
		DirectFrac float64 `json:"direct_frac"`
	} `json:"config"`
	tally
	FunctionsPerSecond float64 `json:"functions_per_second"`
	Latency            struct {
		P50Ms float64 `json:"p50_ms"`
		P90Ms float64 `json:"p90_ms"`
		P99Ms float64 `json:"p99_ms"`
		MaxMs float64 `json:"max_ms"`
	} `json:"latency"`
	// Cluster mirrors the router's /v1/cachestats aggregate — the hit
	// rate the daemons themselves report, not one inferred client-side.
	Cluster rolagdapi.CacheStats `json:"cluster"`
	HitRate float64              `json:"hit_rate"`
}

// runConfig is the config block every record starts with.
type runConfig struct {
	Shards   int     `json:"shards"`
	Workers  int     `json:"workers"`
	CorpusN  int     `json:"corpus_n"`
	Seed     int64   `json:"seed"`
	Requests int     `json:"requests"`
	Rate     float64 `json:"rate_per_sec"`
	ZipfS    float64 `json:"zipf_s"`
}

// parity counts replies checked against the serial reference.
type parity struct {
	Checked    int64 `json:"checked"`
	Mismatched int64 `json:"mismatched"`
}

// config carries the flags into the modes.
type config struct {
	shards, n, requests int
	rate                float64
	timeout             time.Duration
	out, check          string
	requirePeerHits     bool
	maxSlowdown         float64
}

func (c config) record() runConfig {
	return runConfig{Shards: c.shards, Workers: workers, CorpusN: c.n, Seed: seed,
		Requests: c.requests, Rate: c.rate, ZipfS: zipfS}
}

func main() {
	var cfg config
	flag.IntVar(&cfg.shards, "shards", 3, "rolagd replicas to spawn")
	flag.IntVar(&cfg.n, "n", 400, "angha corpus size (distinct functions)")
	flag.IntVar(&cfg.requests, "requests", 2000, "total requests to issue")
	flag.Float64Var(&cfg.rate, "rate", 200, "open-loop Poisson arrival rate, requests/sec")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request deadline")
	flag.StringVar(&cfg.out, "out", "", "write the result JSON here (default stdout)")
	flag.BoolVar(&cfg.requirePeerHits, "require-peer-hits", false, "fail unless the fleet reports >0 peer-cache hits")
	flag.StringVar(&cfg.check, "check", "", "baseline JSON to gate against (exit 1 on regression)")
	flag.Float64Var(&cfg.maxSlowdown, "max-slowdown", 3, "allowed p99 and functions/sec ratio vs the -check baseline")
	fleetMode := flag.Bool("fleet", false, "run the fleet-telemetry benchmark with its SLO gates instead of the main benchmark (see fleet.go)")
	chaos := flag.Bool("chaos", false, "run the cluster chaos harness instead of the benchmark (see chaos.go)")
	flag.Parse()

	var err error
	switch {
	case *chaos && *fleetMode:
		fmt.Fprintln(os.Stderr, "rolag-loadgen: -chaos and -fleet are mutually exclusive")
		flag.Usage()
		os.Exit(2)
	case *chaos:
		err = runChaos(cfg)
	case *fleetMode:
		err = runFleet(cfg)
	default:
		err = runBench(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rolag-loadgen: %v\n", err)
		os.Exit(1)
	}
}

// runBench is the default mode: a zipfian burst, partly shard-direct,
// gated on errors, parity, peer hits and an optional baseline.
func runBench(cfg config) error {
	h, err := newHarness(cfg, slog.LevelWarn, "", 0)
	if err != nil {
		return err
	}
	defer h.close()
	if err := h.startRouter(cluster.Config{}); err != nil {
		return err
	}
	t := h.drive(schedule(cfg.n, cfg.requests, cfg.rate, directFrac))

	res := &Result{Schema: Schema, tally: *t}
	res.Config.runConfig = cfg.record()
	res.Config.DirectFrac = directFrac
	if t.Wall > 0 {
		res.FunctionsPerSecond = float64(t.Completed) / t.Wall
	}
	res.Latency.P50Ms = pct(t.lat, 50)
	res.Latency.P90Ms = pct(t.lat, 90)
	res.Latency.P99Ms = pct(t.lat, 99)
	res.Latency.MaxMs = pct(t.lat, 100)

	// Cluster-wide counters straight from the daemons, via the router's
	// /v1/cachestats aggregation.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	cs, err := h.router.CacheStats(ctx)
	cancel()
	if err != nil {
		return fmt.Errorf("cachestats: %w", err)
	}
	res.Cluster = *cs
	res.HitRate = cs.HitRate()
	if err := writeRecord(cfg.out, res); err != nil {
		return err
	}

	var f failures
	f.check(res.Errors == 0, "%d requests failed", res.Errors)
	f.check(res.Parity.Mismatched == 0, "%d responses differ from the serial reference", res.Parity.Mismatched)
	f.check(!cfg.requirePeerHits || cs.PeerHits > 0, "fleet reports zero peer-cache hits (-require-peer-hits)")
	if cfg.check != "" {
		err := gate(res, cfg.check, cfg.maxSlowdown)
		f.check(err == nil, "%v", err)
	}
	return f.err()
}

// gate compares the run against a committed baseline: p99 latency and
// functions/sec may move by at most maxSlowdown×, the daemon-reported
// cluster hit rate by at most hitRateSlack absolute.
func gate(res *Result, baselinePath string, maxSlowdown float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Result
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	if base.Schema != res.Schema {
		return fmt.Errorf("baseline schema %q != run schema %q", base.Schema, res.Schema)
	}
	if base.Latency.P99Ms > 0 {
		ratio := res.Latency.P99Ms / base.Latency.P99Ms
		fmt.Fprintf(os.Stderr, "rolag-loadgen: p99 %.1fms vs baseline %.1fms (ratio %.2fx, limit %.2fx)\n",
			res.Latency.P99Ms, base.Latency.P99Ms, ratio, maxSlowdown)
		if ratio > maxSlowdown {
			return fmt.Errorf("p99 regression: %.2fx over baseline (limit %.2fx)", ratio, maxSlowdown)
		}
	}
	if base.FunctionsPerSecond > 0 {
		ratio := base.FunctionsPerSecond / res.FunctionsPerSecond
		fmt.Fprintf(os.Stderr, "rolag-loadgen: %.0f functions/sec vs baseline %.0f (ratio %.2fx, limit %.2fx)\n",
			res.FunctionsPerSecond, base.FunctionsPerSecond, ratio, maxSlowdown)
		if ratio > maxSlowdown {
			return fmt.Errorf("throughput regression: %.2fx under baseline (limit %.2fx)", ratio, maxSlowdown)
		}
	}
	if drop := base.HitRate - res.HitRate; drop > hitRateSlack {
		return fmt.Errorf("hit-rate regression: %.2f vs baseline %.2f (slack %.2f)", res.HitRate, base.HitRate, hitRateSlack)
	}
	return nil
}
