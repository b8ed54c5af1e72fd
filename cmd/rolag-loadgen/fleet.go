package main

// The fleet-telemetry mode (-fleet): the same local cluster with
// tracing on and one span ring per process, a traced burst through the
// router, and two fleet-plane SLO gates:
//
//   - Trace completeness: at least minTraceComplete of the sampled
//     requests' GET /debug/trace/{id} must return a stitched Chrome
//     trace with a router track AND at least one shard track.
//   - Histogram consistency: the router-observed /v1/compile p99 must
//     agree with the fleet-merged shard-reported p99 within
//     fleetP99Ratio plus fleetP99FloorMs. The router measures hop time
//     on top of shard service time, so the two can differ — but a wide
//     gap means the aggregation or the scrape plumbing is lying.
//
// The result is written as rolag/fleet-bench/v1 JSON; the committed
// copy lives at results/BENCH_fleet.json.

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"rolag/internal/cluster"
	"rolag/internal/obs"
	"rolag/internal/obs/fleet"
)

// FleetSchema identifies the BENCH_fleet.json layout.
const FleetSchema = "rolag/fleet-bench/v1"

// FleetResult is the machine-readable fleet-telemetry record.
type FleetResult struct {
	Schema string `json:"schema"`
	Config struct {
		runConfig
		TraceBuf int `json:"trace_buf"`
	} `json:"config"`
	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`
	Trace     struct {
		Sampled      int     `json:"sampled"`
		Stitched     int     `json:"stitched"` // router + ≥1 shard track
		Completeness float64 `json:"completeness"`
		MinComplete  float64 `json:"min_complete"`
		DroppedSpans uint64  `json:"dropped_spans"` // router + fleet total
	} `json:"trace"`
	Latency struct {
		RouterP99Ms float64 `json:"router_p99_ms"`
		FleetP99Ms  float64 `json:"fleet_p99_ms"`
		RatioLimit  float64 `json:"ratio_limit"`
		FloorMs     float64 `json:"floor_ms"`
	} `json:"latency"`
	Router fleet.RouterStats `json:"router"`
	Gates  struct {
		TraceComplete bool `json:"trace_complete"`
		P99Consistent bool `json:"p99_consistent"`
	} `json:"gates"`
}

func runFleet(cfg config) error {
	// One ring per process. Everything here shares one address space,
	// so without private rings every "process" would export every span
	// and stitching would trivially (and falsely) pass.
	h, err := newHarness(cfg, slog.LevelWarn, "", fleetTraceBuf)
	if err != nil {
		return err
	}
	defer h.close()
	obs.EnableTracing(true)
	defer obs.EnableTracing(false)
	if err := h.startRouter(cluster.Config{Hedge: true, TraceRing: obs.NewTraceRing(fleetTraceBuf)}); err != nil {
		return err
	}
	t := h.drive(schedule(cfg.n, cfg.requests, cfg.rate, 0))

	res := &FleetResult{Schema: FleetSchema}
	res.Config.runConfig = cfg.record()
	res.Config.TraceBuf = fleetTraceBuf
	res.Completed, res.Errors = t.Completed, t.Errors

	// Trace completeness over the most recent traceSample requests
	// (recent, because old traces legitimately age out of a bounded
	// ring; sampling the tail measures the plane, not ring capacity).
	sample := t.traceIDs[max(0, len(t.traceIDs)-traceSample):]
	httpc := &http.Client{Timeout: 10 * time.Second}
	for _, id := range sample {
		if stitched(httpc, h.router.BaseURL+"/debug/trace/"+id) {
			res.Trace.Stitched++
		}
	}
	res.Trace.Sampled = len(sample)
	res.Trace.MinComplete = minTraceComplete
	if len(sample) > 0 {
		res.Trace.Completeness = float64(res.Trace.Stitched) / float64(len(sample))
	}

	// Histogram consistency: router-observed vs fleet-merged p99 for
	// /v1/compile, after a synchronous scrape so the merge is current.
	scrapeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	h.rt.ScrapeNow(scrapeCtx)
	cancel()
	ov := h.rt.FleetOverview()
	res.Router = ov.Router
	res.Trace.DroppedSpans = ov.Router.TraceDropped
	for _, sh := range ov.Shards {
		res.Trace.DroppedSpans += sh.TraceDropped
	}
	routerP99 := h.rt.RouterRouteHist("/v1/compile").Quantile(0.99) * 1e3
	fleetP99 := h.rt.FleetRouteHist("/v1/compile").Quantile(0.99) * 1e3
	res.Latency.RouterP99Ms = routerP99
	res.Latency.FleetP99Ms = fleetP99
	res.Latency.RatioLimit = fleetP99Ratio
	res.Latency.FloorMs = fleetP99FloorMs

	within := func(a, b float64) bool { return a <= b*fleetP99Ratio+fleetP99FloorMs }
	res.Gates.P99Consistent = routerP99 > 0 && fleetP99 > 0 &&
		within(routerP99, fleetP99) && within(fleetP99, routerP99)
	res.Gates.TraceComplete = res.Trace.Sampled > 0 && res.Trace.Completeness >= minTraceComplete
	if err := writeRecord(cfg.out, res); err != nil {
		return err
	}

	var f failures
	f.check(res.Errors == 0, "fleet: %d requests failed", res.Errors)
	f.check(t.Parity.Mismatched == 0, "fleet: %d responses differ from the serial reference", t.Parity.Mismatched)
	f.check(res.Gates.TraceComplete, "fleet: trace completeness %.3f below gate %.3f",
		res.Trace.Completeness, minTraceComplete)
	f.check(res.Gates.P99Consistent, "fleet: p99 inconsistent: router %.1fms vs fleet %.1fms "+
		"(limit %.1fx + %.0fms)", routerP99, fleetP99, fleetP99Ratio, fleetP99FloorMs)
	return f.err()
}

// stitched fetches one stitched trace and reports whether it has a
// router track and at least one shard track.
func stitched(httpc *http.Client, url string) bool {
	resp, err := httpc.Get(url)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	procs, err := fleet.Processes(body)
	if err != nil {
		return false
	}
	shardTracks := 0
	for name, spans := range procs {
		if strings.HasPrefix(name, "shard-") && spans > 0 {
			shardTracks++
		}
	}
	return procs["router"] > 0 && shardTracks >= 1
}
