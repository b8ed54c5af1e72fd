package fleet

import (
	"sort"
	"sync"
	"time"
)

// ShardObservation is one scrape of a shard's counters — the subset of
// /v1/cachestats the fleet plane aggregates. Counters are cumulative
// since shard start; the Collector keeps the previous observation per
// shard and differentiates to get RED rates.
type ShardObservation struct {
	Requests         int64
	Errors           int64
	Shed             int64
	Degraded         int64
	InFlight         int64
	Hits             int64 // cache + dedup hits
	Misses           int64
	PeerHits         int64
	SnapshotWarmHits int64
	TraceDropped     uint64
	// Routes maps request path ("/v1/compile", "/v1/batch") to that
	// shard's request-latency histogram.
	Routes map[string]HistSnapshot
}

// shardRecord is the collector's per-shard state: the latest
// observation, the one before it (for rate deltas), and scrape health.
type shardRecord struct {
	cur    ShardObservation
	curAt  time.Time
	prev   ShardObservation
	prevAt time.Time
	hasCur bool
	ok     bool
	errMsg string
}

// Collector accumulates shard scrapes and aggregates them into
// fleet-level overviews. Safe for concurrent use (the scrape loop
// writes while /debug/fleet reads).
type Collector struct {
	mu     sync.Mutex
	shards map[string]*shardRecord
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{shards: make(map[string]*shardRecord)}
}

// Record stores one successful scrape of shard taken at the given time.
func (c *Collector) Record(shard string, o ShardObservation, at time.Time) {
	c.mu.Lock()
	r := c.shards[shard]
	if r == nil {
		r = &shardRecord{}
		c.shards[shard] = r
	}
	if r.hasCur {
		r.prev, r.prevAt = r.cur, r.curAt
	}
	r.cur, r.curAt, r.hasCur = o, at, true
	r.ok, r.errMsg = true, ""
	c.mu.Unlock()
}

// RecordError marks shard's latest scrape as failed. The previous
// observation is kept so the overview can show stale data labeled as
// such instead of a blank row.
func (c *Collector) RecordError(shard, msg string, at time.Time) {
	c.mu.Lock()
	r := c.shards[shard]
	if r == nil {
		r = &shardRecord{}
		c.shards[shard] = r
	}
	r.ok, r.errMsg = false, msg
	c.mu.Unlock()
}

// RouteLatency is one route's latency summary (per shard or merged
// fleet-wide).
type RouteLatency struct {
	Route string  `json:"route"`
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// NewRouteLatency summarizes one route's histogram: quantiles in
// milliseconds, trimmed by round3 for JSON.
func NewRouteLatency(route string, h HistSnapshot) RouteLatency {
	return RouteLatency{
		Route: route,
		Count: h.Count,
		P50Ms: round3(h.Quantile(0.50) * 1e3),
		P95Ms: round3(h.Quantile(0.95) * 1e3),
		P99Ms: round3(h.Quantile(0.99) * 1e3),
	}
}

// ShardOverview is one shard's row in /debug/fleet: latest counters,
// RED rates from the last scrape interval, and latency quantiles.
type ShardOverview struct {
	Shard       string  `json:"shard"`
	State       string  `json:"state"` // router health: up/suspect/down
	ScrapeOK    bool    `json:"scrape_ok"`
	ScrapeError string  `json:"scrape_error,omitempty"`
	AgeSeconds  float64 `json:"age_seconds"` // since last good scrape

	Requests         int64   `json:"requests"`
	Errors           int64   `json:"errors"`
	Shed             int64   `json:"shed"`
	Degraded         int64   `json:"degraded"`
	InFlight         int64   `json:"in_flight"`
	HitRate          float64 `json:"hit_rate"`
	PeerHits         int64   `json:"peer_hits"`
	SnapshotWarmHits int64   `json:"snapshot_warm_hits"`
	TraceDropped     uint64  `json:"trace_dropped"`

	// RED rates, differentiated over the last scrape interval; zero
	// until two scrapes exist.
	RatePerSec      float64 `json:"rate_per_sec"`
	ErrorRatePerSec float64 `json:"error_rate_per_sec"`

	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`

	Routes []RouteLatency `json:"routes,omitempty"`
}

// Shards returns one overview row per scraped shard, sorted by name.
// State is left empty — the caller (the router, which owns health)
// fills it in.
func (c *Collector) Shards(now time.Time) []ShardOverview {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardOverview, 0, len(c.shards))
	for name, r := range c.shards {
		ov := ShardOverview{Shard: name, ScrapeOK: r.ok, ScrapeError: r.errMsg}
		if !r.hasCur {
			out = append(out, ov)
			continue
		}
		o := r.cur
		ov.AgeSeconds = round3(now.Sub(r.curAt).Seconds())
		ov.Requests = o.Requests
		ov.Errors = o.Errors
		ov.Shed = o.Shed
		ov.Degraded = o.Degraded
		ov.InFlight = o.InFlight
		ov.PeerHits = o.PeerHits
		ov.SnapshotWarmHits = o.SnapshotWarmHits
		ov.TraceDropped = o.TraceDropped
		if o.Hits+o.Misses > 0 {
			ov.HitRate = round3(float64(o.Hits) / float64(o.Hits+o.Misses))
		}
		if r.prevAt.Before(r.curAt) && !r.prevAt.IsZero() {
			dt := r.curAt.Sub(r.prevAt).Seconds()
			if dt > 0 {
				ov.RatePerSec = round3(float64(o.Requests-r.prev.Requests) / dt)
				ov.ErrorRatePerSec = round3(float64(o.Errors-r.prev.Errors) / dt)
			}
		}
		var all HistSnapshot
		routes := make([]string, 0, len(o.Routes))
		for route := range o.Routes {
			routes = append(routes, route)
		}
		sort.Strings(routes)
		for _, route := range routes {
			h := o.Routes[route]
			all.Merge(h)
			ov.Routes = append(ov.Routes, NewRouteLatency(route, h))
		}
		ov.P50Ms = round3(all.Quantile(0.50) * 1e3)
		ov.P95Ms = round3(all.Quantile(0.95) * 1e3)
		ov.P99Ms = round3(all.Quantile(0.99) * 1e3)
		out = append(out, ov)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// RouteHist returns the fleet-wide merge of every shard's latest
// histogram for one route — the series the SLO gate compares against
// the router's own observations.
func (c *Collector) RouteHist(route string) HistSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var merged HistSnapshot
	for _, r := range c.shards {
		if !r.hasCur {
			continue
		}
		if h, ok := r.cur.Routes[route]; ok {
			merged.Merge(h)
		}
	}
	return merged
}

// Routes returns fleet-level latency summaries, one per route seen on
// any shard, sorted by route.
func (c *Collector) Routes() []RouteLatency {
	c.mu.Lock()
	seen := map[string]bool{}
	for _, r := range c.shards {
		if !r.hasCur {
			continue
		}
		for route := range r.cur.Routes {
			seen[route] = true
		}
	}
	c.mu.Unlock()
	names := make([]string, 0, len(seen))
	for route := range seen {
		names = append(names, route)
	}
	sort.Strings(names)
	out := make([]RouteLatency, 0, len(names))
	for _, route := range names {
		out = append(out, NewRouteLatency(route, c.RouteHist(route)))
	}
	return out
}

// TraceDroppedTotal sums the fleet's shard-side dropped-span counters.
func (c *Collector) TraceDroppedTotal() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total uint64
	for _, r := range c.shards {
		if r.hasCur {
			total += r.cur.TraceDropped
		}
	}
	return total
}

// RouterStats is the router's own contribution to the fleet overview:
// counters no shard can see (hedging, failover, router-observed
// latency).
type RouterStats struct {
	Requests     int64  `json:"requests"`
	Batches      int64  `json:"batches"`
	Items        int64  `json:"items"`
	Failovers    int64  `json:"failovers"`
	HedgePrimary int64  `json:"hedge_primary"`
	HedgeWins    int64  `json:"hedge_wins"`
	HedgeFailed  int64  `json:"hedge_failed"`
	TraceDropped uint64 `json:"trace_dropped"`
	// Routes is latency as the router observed it (including hop time),
	// per route.
	Routes []RouteLatency `json:"routes,omitempty"`
}

// Overview is the /debug/fleet JSON document.
type Overview struct {
	// Shards is one row per shard: health, RED rates, quantiles.
	Shards []ShardOverview `json:"shards"`
	// Routes is the fleet-wide merge of shard-reported route histograms.
	Routes []RouteLatency `json:"routes"`
	// Router is the router's own counters and observed latencies.
	Router RouterStats `json:"router"`
}
