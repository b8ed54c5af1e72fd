package cluster

// The router side of the fleet telemetry plane (internal/obs/fleet):
// a scrape loop that pulls every shard's /v1/cachestats into the
// fleet.Collector, the /debug/fleet JSON aggregation, and the
// cross-process trace collector that stitches the router's span ring
// together with every shard's matching trace segment.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"rolag/internal/obs"
	"rolag/internal/obs/fleet"
	"rolag/internal/rolagdapi"
)

// DefaultScrapeInterval is the fleet-metrics scrape cadence when
// Config.ScrapeInterval is zero. Scrapes are one GET per shard, so a
// couple of seconds keeps /debug/fleet near-live without meaningfully
// loading the shards.
const DefaultScrapeInterval = 2 * time.Second

// scrapeTimeout bounds one whole scrape round; a stuck shard must not
// stall the loop past its cadence.
const scrapeTimeout = 5 * time.Second

// scrapeLoop pulls shard stats until Close.
func (rt *Router) scrapeLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.probeStop:
			return
		case <-t.C:
			rt.ScrapeNow(context.Background())
		}
	}
}

// ScrapeNow scrapes every shard's /v1/cachestats into the collector
// once, concurrently. Exported for the loadgen harness and tests,
// which need fresh aggregates without waiting out a tick.
func (rt *Router) ScrapeNow(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range rt.ring.Shards() {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			rt.scrapeOne(ctx, name)
		}(name)
	}
	wg.Wait()
}

func (rt *Router) scrapeOne(ctx context.Context, name string) {
	now := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.shards[name]+"/v1/cachestats", nil)
	if err != nil {
		rt.collector.RecordError(name, err.Error(), now)
		return
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		rt.collector.RecordError(name, err.Error(), now)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rt.collector.RecordError(name, fmt.Sprintf("HTTP %d", resp.StatusCode), now)
		return
	}
	var cs rolagdapi.CacheStats
	if err := json.NewDecoder(io.LimitReader(resp.Body, rt.maxReply)).Decode(&cs); err != nil {
		rt.collector.RecordError(name, "decoding: "+err.Error(), now)
		return
	}
	rt.collector.Record(name, fleet.ShardObservation{
		Requests:         cs.Requests,
		Errors:           cs.Errors,
		Shed:             cs.Shed,
		Degraded:         cs.Degraded,
		InFlight:         cs.InFlight,
		Hits:             cs.CacheHits + cs.DedupHits,
		Misses:           cs.CacheMisses,
		PeerHits:         cs.PeerHits,
		SnapshotWarmHits: cs.SnapshotWarmHits,
		TraceDropped:     cs.TraceDropped,
		Routes:           cs.Routes,
	}, now)
}

// FleetOverview assembles the /debug/fleet document: per-shard rows
// (scraped counters + the health tracker's state), fleet-merged route
// quantiles, and the router's own counters.
func (rt *Router) FleetOverview() fleet.Overview {
	shards := rt.collector.Shards(time.Now())
	tracked := rt.health.snapshot()
	for i := range shards {
		if st, ok := tracked[shards[i].Shard]; ok {
			shards[i].State = st.String()
		}
	}
	return fleet.Overview{
		Shards: shards,
		Routes: rt.collector.Routes(),
		Router: fleet.RouterStats{
			Requests:     rt.requests.Load(),
			Batches:      rt.batches.Load(),
			Items:        rt.items.Load(),
			Failovers:    rt.failovers.Load(),
			HedgePrimary: rt.hedgePrimary.Load(),
			HedgeWins:    rt.hedgeWins.Load(),
			HedgeFailed:  rt.hedgeFailed.Load(),
			TraceDropped: rt.obsRing().Dropped(),
			Routes: []fleet.RouteLatency{
				fleet.NewRouteLatency("/v1/compile", rt.compileHist.Snapshot()),
				fleet.NewRouteLatency("/v1/batch", rt.batchHist.Snapshot()),
			},
		},
	}
}

// RouterRouteHist exposes the router-observed latency snapshot for one
// route (the SLO gate's router-side series).
func (rt *Router) RouterRouteHist(route string) fleet.HistSnapshot {
	switch route {
	case "/v1/compile":
		return rt.compileHist.Snapshot()
	case "/v1/batch":
		return rt.batchHist.Snapshot()
	}
	return fleet.HistSnapshot{}
}

// FleetRouteHist exposes the fleet-merged shard-reported histogram for
// one route (the SLO gate's shard-side series).
func (rt *Router) FleetRouteHist(route string) fleet.HistSnapshot {
	return rt.collector.RouteHist(route)
}

// handleFleet serves the aggregated fleet view. ?refresh=1 forces a
// synchronous scrape first, so tests and dashboards can opt into
// up-to-the-request freshness.
func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("refresh") != "" {
		rt.ScrapeNow(r.Context())
	}
	rolagdapi.WriteJSON(w, http.StatusOK, rt.FleetOverview())
}

// handleTraceRing serves the router's own span ring as Chrome trace
// JSON, with the same ?trace=<id> filter shards serve.
func (rt *Router) handleTraceRing(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("trace")
	if filter != "" && !obs.ValidTraceID(filter) {
		rolagdapi.WriteJSON(w, http.StatusBadRequest, rolagdapi.ErrorResponse{Error: "invalid trace id"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rt.obsRing().WriteChrome(w, filter)
}

// handleTraceStitch is the cross-process trace collector: it filters
// the router's own ring to the requested trace ID, pulls the matching
// segment from every shard's /debug/trace?trace=<id>, and merges them
// into one Chrome trace with per-process track names. Unreachable
// shards are skipped — a partial stitched trace beats none during the
// exact outages traces are needed most.
func (rt *Router) handleTraceStitch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidTraceID(id) {
		rolagdapi.WriteJSON(w, http.StatusBadRequest, rolagdapi.ErrorResponse{Error: "invalid trace id"})
		return
	}

	var own bytes.Buffer
	rt.obsRing().WriteChrome(&own, id)
	segments := []fleet.Segment{{Process: "router", Data: own.Bytes()}}

	names := rt.ring.Shards()
	shardSegs := make([][]byte, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
				rt.shards[name]+"/debug/trace?trace="+id, nil)
			if err != nil {
				return
			}
			resp, err := rt.httpc.Do(req)
			if err != nil {
				rt.logger().Debug("trace segment fetch failed", "shard", name, "trace", id, "err", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			data, err := readReply(resp.Body, rt.maxReply)
			if err != nil {
				rt.logger().Debug("trace segment dropped", "shard", name, "trace", id, "err", err)
				return
			}
			shardSegs[i] = data
		}(i, name)
	}
	wg.Wait()
	for i, name := range names {
		if shardSegs[i] != nil {
			segments = append(segments, fleet.Segment{Process: name, Data: shardSegs[i]})
		}
	}

	stitched, err := fleet.Stitch(segments)
	if err != nil {
		rolagdapi.WriteJSON(w, http.StatusInternalServerError, rolagdapi.ErrorResponse{Error: "stitching: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(stitched)
}
