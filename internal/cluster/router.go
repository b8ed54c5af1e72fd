// Package cluster is the rolagd cluster's routing layer: a
// consistent-hash router that fronts N rolagd replicas.
//
// Every request is routed by the same SHA-256 content address the
// engine's cache is indexed by (service.Key), so each shard owns a
// stable slice of the keyspace and its local LRU cache concentrates
// exactly the keys it will be asked for. Batches fan out across shards
// by per-item key ownership and multiplex back in input order. When a
// shard is unreachable the router retries the ring's next shard and
// marks the result degraded — content-addressed keys make any shard's
// answer for a key correct, so failover can never serve a wrong
// result, only a less cache-warm one.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rolag/internal/cluster/ring"
	"rolag/internal/obs"
	"rolag/internal/obs/fleet"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
)

// FailoverPass is the pass name the router appends to a result's
// degradedPasses when the home shard was unreachable and the ring's
// next shard served the request instead. It shares the wire field with
// the engine's fail-soft pass skips so existing degraded-aware clients
// notice shard failover without learning a new field.
const FailoverPass = "router:failover"

// Config assembles a Router.
type Config struct {
	// Shards maps shard names to base URLs; the same membership every
	// replica was started with (-peers), so router and shards agree on
	// key ownership without coordination.
	Shards map[string]string
	// VNodes is the ring's virtual-node count per shard (0 = default).
	VNodes int
	// HTTPClient talks to the shards (nil = a client with Timeout 60s;
	// per-request deadlines still come from the caller's context).
	HTTPClient *http.Client
	// Log receives one structured line per routed request; nil falls
	// back to slog.Default().
	Log *slog.Logger

	// ProbeInterval is the background health prober's cadence (0 =
	// DefaultProbeInterval; negative disables the prober — passive
	// request outcomes still drive the state machine).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe (0 = DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// DownAfter is how many consecutive failures demote a shard from
	// suspect to down (0 = DefaultDownAfter).
	DownAfter int

	// ScrapeInterval is the fleet-metrics scrape cadence: how often the
	// router pulls every shard's /v1/cachestats into the /debug/fleet
	// aggregation (0 = DefaultScrapeInterval; negative disables the
	// loop — /debug/fleet?refresh=1 still scrapes on demand).
	ScrapeInterval time.Duration

	// TraceRing, when set, is the router's own span ring instead of the
	// process-default one. Multi-daemon processes (tests, the loadgen
	// fleet harness) need it so router spans and shard spans live in
	// separate rings and stitch into distinct per-process tracks.
	TraceRing *obs.TraceRing

	// Hedge enables tail-latency request hedging on /v1/compile: when
	// the home shard has not answered within its adaptive delay, race a
	// second copy against the key's next ring successor.
	Hedge bool
	// HedgeQuantile picks the latency quantile used as the hedge delay
	// (0 = DefaultHedgeQuantile).
	HedgeQuantile float64
	// HedgeMinDelay / HedgeMaxDelay clamp the adaptive delay (0 =
	// DefaultHedgeMinDelay / DefaultHedgeMaxDelay).
	HedgeMinDelay time.Duration
	HedgeMaxDelay time.Duration
}

// Router fronts the shard fleet. Create with New; the Handler serves
// the same /v1 protocol as a single daemon, so clients move from one
// rolagd to a cluster by changing a URL.
type Router struct {
	ring   *ring.Ring
	shards map[string]string
	httpc  *http.Client
	log    *slog.Logger

	health       *healthSet
	probeTimeout time.Duration
	probeStop    chan struct{}
	closeOnce    sync.Once

	hedge         bool
	hedgeQuantile float64
	hedgeMinDelay time.Duration
	hedgeMaxDelay time.Duration
	lat           map[string]*latWindow // per-shard; fixed at startup

	traceRing *obs.TraceRing
	collector *fleet.Collector
	// maxReply is MaxShardReplyBytes; tests lower it to probe the cap.
	maxReply int64
	// compileHist/batchHist are the router-observed per-route request
	// latencies (time to first usable shard answer, hops included) —
	// the "duration" leg of the fleet RED view and the SLO gate's
	// comparison point against shard-reported histograms.
	compileHist fleet.Hist
	batchHist   fleet.Hist

	requests     atomic.Int64
	batches      atomic.Int64
	items        atomic.Int64
	failovers    atomic.Int64
	hedgePrimary atomic.Int64
	hedgeWins    atomic.Int64
	hedgeFailed  atomic.Int64
	routed       map[string]*atomic.Int64 // per-shard; fixed at startup
}

// New builds a router over the given shard membership.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	rt := &Router{
		ring:          ring.New(cfg.VNodes),
		shards:        cfg.Shards,
		httpc:         cfg.HTTPClient,
		log:           cfg.Log,
		probeTimeout:  cfg.ProbeTimeout,
		probeStop:     make(chan struct{}),
		hedge:         cfg.Hedge,
		hedgeQuantile: cfg.HedgeQuantile,
		hedgeMinDelay: cfg.HedgeMinDelay,
		hedgeMaxDelay: cfg.HedgeMaxDelay,
		lat:           make(map[string]*latWindow, len(cfg.Shards)),
		routed:        make(map[string]*atomic.Int64, len(cfg.Shards)),
		traceRing:     cfg.TraceRing,
		collector:     fleet.NewCollector(),
		maxReply:      MaxShardReplyBytes,
	}
	names := make([]string, 0, len(cfg.Shards))
	for name := range cfg.Shards {
		rt.ring.Add(name)
		rt.routed[name] = new(atomic.Int64)
		rt.lat[name] = new(latWindow)
		names = append(names, name)
	}
	rt.health = newHealthSet(names, cfg.DownAfter)
	if rt.httpc == nil {
		rt.httpc = &http.Client{Timeout: 60 * time.Second}
	}
	if rt.probeTimeout <= 0 {
		rt.probeTimeout = DefaultProbeTimeout
	}
	if rt.hedgeQuantile <= 0 || rt.hedgeQuantile >= 1 {
		rt.hedgeQuantile = DefaultHedgeQuantile
	}
	if rt.hedgeMinDelay <= 0 {
		rt.hedgeMinDelay = DefaultHedgeMinDelay
	}
	if rt.hedgeMaxDelay <= 0 {
		rt.hedgeMaxDelay = DefaultHedgeMaxDelay
	}
	if cfg.ProbeInterval >= 0 {
		interval := cfg.ProbeInterval
		if interval == 0 {
			interval = DefaultProbeInterval
		}
		go rt.probeLoop(interval)
	}
	if cfg.ScrapeInterval >= 0 {
		interval := cfg.ScrapeInterval
		if interval == 0 {
			interval = DefaultScrapeInterval
		}
		go rt.scrapeLoop(interval)
	}
	return rt, nil
}

// MaxShardReplyBytes bounds what the router reads of one shard reply: a
// compile or batch reply, a trace segment or a stats scrape. A legal
// request body is at most rolagdapi.MaxBodyBytes. The most a request
// byte expands by, measured over the AnghaBench-style corpus and the
// TSVC kernels with IR, assembly and remarks all asked for, is 209
// reply bytes (TSVC's va), so the largest legal batch reply is about
// 209 MiB; the cap rounds that up to 256 times the body limit.
const MaxShardReplyBytes = 256 * rolagdapi.MaxBodyBytes

// errReplyTooLarge reports a shard reply longer than the read cap.
var errReplyTooLarge = errors.New("cluster: shard reply exceeds the read cap")

// readReply reads all of body, failing with errReplyTooLarge once it
// passes limit bytes.
func readReply(body io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err == nil && int64(len(data)) > limit {
		return nil, errReplyTooLarge
	}
	return data, err
}

// tooLargeReply is the 502 body for a shard reply over the read cap.
func tooLargeReply(limit int64) rolagdapi.ErrorResponse {
	return rolagdapi.ErrorResponse{
		Error: fmt.Sprintf("cluster: shard reply exceeds %d bytes", limit),
		Code:  rolagdapi.CodeReplyTooLarge,
	}
}

// obsRing resolves the ring router spans land in.
func (rt *Router) obsRing() *obs.TraceRing {
	if rt.traceRing != nil {
		return rt.traceRing
	}
	return obs.DefaultRing()
}

// Close stops the background health prober. Safe to call twice.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.probeStop) })
}

func (rt *Router) logger() *slog.Logger {
	if rt.log != nil {
		return rt.log
	}
	return slog.Default()
}

// Owner exposes ring ownership (used by tests and the loadgen's
// parity reporting).
func (rt *Router) Owner(key string) string { return rt.ring.Owner(key) }

// forwardCtx posts body to one shard's path, forwarding the trace ID,
// and returns the reply. retryable marks transport errors and statuses
// that justify trying the next shard: 5xx (shard broken or draining)
// and 429 (shard saturated — its keyspace neighbor may have capacity).
//
// Every outcome also feeds the health state machine: a served response
// is proof of life, a transport error with a live context or a 5xx is a
// failure. Only 2xx responses feed the hedging latency window, so the
// hedge delay tracks successful-compile latency rather than shed
// turnaround. A canceled context records nothing — a hedge race's loser
// is not evidence about the shard, only about the race.
func (rt *Router) forwardCtx(ctx context.Context, shard, path string, body []byte) (status int, reply []byte, retryable bool, err error) {
	base, ok := rt.shards[shard]
	if !ok {
		return 0, nil, true, fmt.Errorf("cluster: unknown shard %q", shard)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Every router→shard hop gets its own span ID sent downstream as
	// X-Trace-Parent, so the shard's spans attach under this hop in
	// the stitched trace. The hop span records an outcome status — a
	// hedge race's losing leg shows up as "canceled", which explains
	// the tail latency the hedge hid without feeding health evidence.
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
		obs.EndHopSpan(tr, "hop:"+shard, span, hopID, path, status)
	}
	start := time.Now()
	resp, err := rt.httpc.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			if state, changed := rt.health.fail(shard); changed {
				rt.logger().Warn("shard unreachable", "shard", shard, "state", state.String())
			}
			hopDone("error")
			return 0, nil, true, err
		}
		if errors.Is(ctx.Err(), context.Canceled) {
			hopDone("canceled")
		} else {
			hopDone("error")
		}
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	reply, err = readReply(resp.Body, rt.maxReply)
	if errors.Is(err, errReplyTooLarge) {
		// The shard answered; any other shard would answer the same.
		hopDone("error")
		return resp.StatusCode, nil, false, err
	}
	if err != nil {
		hopDone("error")
		return 0, nil, true, err
	}
	retryable = resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
	if retryable {
		hopDone("error")
	} else {
		hopDone("ok")
	}
	if resp.StatusCode >= 500 {
		if state, changed := rt.health.fail(shard); changed {
			rt.logger().Warn("shard erroring", "shard", shard, "status", resp.StatusCode, "state", state.String())
		}
	} else {
		// Any served response (including 429 — saturated, not dead) is
		// proof of life, but only 2xx feeds the hedge-delay window: a
		// shed 429 turns around in microseconds, and sampling it would
		// drag the quantile down exactly when the fleet is saturated —
		// firing hedges that double load on an already-overloaded fleet.
		if state, changed := rt.health.ok(shard); changed {
			rt.logger().Info("shard recovered", "shard", shard, "state", state.String())
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			rt.lat[shard].add(time.Since(start))
		}
	}
	if retryable {
		err = fmt.Errorf("cluster: shard %s: HTTP %d", shard, resp.StatusCode)
	}
	return resp.StatusCode, reply, retryable, err
}

// handleCompile routes one compile to the key's home shard, failing
// over around the ring when it is unreachable. Shards the health
// tracker knows are down sort to the back of the walk, so a detected
// outage costs zero connection attempts; with hedging enabled each
// attempt may race the next shard in line. A result served by any
// shard other than the ring home is marked degraded (FailoverPass)
// before it is returned.
func (rt *Router) handleCompile(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	rolagdapi.LimitBody(w, r)
	body, err := io.ReadAll(r.Body)
	if rolagdapi.BodyTooLarge(err) {
		rolagdapi.WriteJSON(w, http.StatusRequestEntityTooLarge, rolagdapi.TooLargeResponse())
		return
	}
	if err != nil {
		rolagdapi.WriteJSON(w, http.StatusBadRequest, rolagdapi.ErrorResponse{Error: "reading body: " + err.Error()})
		return
	}
	var cr rolagdapi.CompileRequest
	if err := json.Unmarshal(body, &cr); err != nil {
		rolagdapi.WriteJSON(w, http.StatusBadRequest, rolagdapi.ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	sreq, err := cr.ToService()
	if err != nil {
		rolagdapi.WriteJSON(w, http.StatusBadRequest, rolagdapi.BadRequest(err))
		return
	}
	key := service.Key(&sreq)

	succ := rt.ring.Successors(key, rt.ring.Len())
	home := succ[0]
	order := rt.orderShards(succ)
	var lastErr error
	// Shards seen failing this request — as a primary or as the losing
	// half of a hedged race — are skipped for the rest of the walk: a
	// shard that just failed is not worth another round trip as the next
	// primary (or as a hedge secondary) during an outage.
	failed := make(map[string]bool, len(order))
	for i, shard := range order {
		if failed[shard] {
			continue
		}
		next := ""
		for _, cand := range order[i+1:] {
			if !failed[cand] {
				next = cand
				break
			}
		}
		res := rt.forwardHedged(r.Context(), shard, next, "/v1/compile", body)
		if errors.Is(res.err, errReplyTooLarge) {
			rolagdapi.WriteJSON(w, http.StatusBadGateway, tooLargeReply(rt.maxReply))
			return
		}
		if res.err != nil && res.retryable {
			rt.logger().Warn("shard failed, trying next", "shard", res.shard, "key", key[:16], "err", res.err)
			lastErr = res.err
			failed[res.shard] = true
			for _, s := range res.raceFailed {
				failed[s] = true
			}
			continue
		}
		if res.err != nil && res.status == 0 {
			rolagdapi.WriteJSON(w, http.StatusBadGateway, rolagdapi.ErrorResponse{Error: res.err.Error()})
			return
		}
		rt.routed[res.shard].Add(1)
		reply := res.reply
		if res.shard != home && res.status == http.StatusOK {
			rt.failovers.Add(1)
			reply = markFailedOver(reply)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(res.status)
		w.Write(reply)
		return
	}
	rolagdapi.WriteJSON(w, http.StatusBadGateway, rolagdapi.ErrorResponse{Error: fmt.Sprintf("cluster: all shards failed: %v", lastErr)})
}

// markFailedOver rewrites a shard's CompileResponse to record that the
// home shard did not serve it: degraded=true plus the FailoverPass
// marker. The compiled payload is untouched — content addressing makes
// it byte-identical regardless of which shard compiled it.
func markFailedOver(reply []byte) []byte {
	var out rolagdapi.CompileResponse
	if err := json.Unmarshal(reply, &out); err != nil {
		return reply
	}
	out.Degraded = true
	out.DegradedPasses = append(out.DegradedPasses, FailoverPass)
	marked, err := json.Marshal(out)
	if err != nil {
		return reply
	}
	return marked
}

// shardBatch is one shard's slice of a routed batch.
type shardBatch struct {
	shard string
	// idx maps positions in items back to the caller's item order.
	idx   []int
	items []rolagdapi.CompileRequest
}

// handleBatch fans a batch out across shards by key ownership and
// multiplexes per-item results back in input order. When a shard's
// whole sub-batch fails the items are re-grouped onto each item's next
// ring successor (skipping shards already seen failing) and the
// recovered results are marked degraded/failed-over.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.batches.Add(1)
	rolagdapi.LimitBody(w, r)
	var br rolagdapi.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&br); err != nil {
		if rolagdapi.BodyTooLarge(err) {
			rolagdapi.WriteJSON(w, http.StatusRequestEntityTooLarge, rolagdapi.TooLargeResponse())
			return
		}
		rolagdapi.WriteJSON(w, http.StatusBadRequest, rolagdapi.ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if len(br.Items) == 0 {
		rolagdapi.WriteJSON(w, http.StatusBadRequest, rolagdapi.ErrorResponse{Error: "batch has no items"})
		return
	}
	rt.items.Add(int64(len(br.Items)))
	start := time.Now()

	out := rolagdapi.BatchResponse{Items: make([]rolagdapi.BatchItemResult, len(br.Items))}

	// Items that fail config mapping are answered by the router itself;
	// the rest are grouped by the first shard of their health-ordered
	// successor list — normally the ring home, but a shard the tracker
	// knows is down loses its groups up front instead of per-round.
	// Failover marking compares the serving shard against the ring home
	// (home[i]), so proactively re-routed items are still honestly
	// degraded. Successor lists are computed once per item and consumed
	// left to right as shards fail.
	succ := make([][]string, len(br.Items))
	home := make([]string, len(br.Items))
	groups := make(map[string]*shardBatch)
	for i := range br.Items {
		sreq, err := br.Items[i].ToService()
		if err != nil {
			out.Items[i].Error = err.Error()
			out.Items[i].Code = rolagdapi.ErrorCode(err)
			continue
		}
		key := service.Key(&sreq)
		succ[i] = rt.ring.Successors(key, rt.ring.Len())
		home[i] = succ[i][0]
		addToGroup(groups, rt.orderShards(succ[i])[0], i, &br.Items[i])
	}

	down := make(map[string]bool)
	for round := 0; len(groups) > 0 && round < rt.ring.Len(); round++ {
		failed, tooLarge := rt.runGroups(r, groups, br.TimeoutMs, &out, home)
		if tooLarge {
			rolagdapi.WriteJSON(w, http.StatusBadGateway, tooLargeReply(rt.maxReply))
			return
		}
		// Re-group every item of each failed shard onto its next live
		// successor; items with no successors left get a terminal error.
		groups = make(map[string]*shardBatch)
		for _, g := range failed {
			down[g.shard] = true
			rt.logger().Warn("shard sub-batch failed, re-routing", "shard", g.shard, "items", len(g.idx))
			for j, i := range g.idx {
				next := nextShard(succ[i], down)
				if next == "" {
					out.Items[i].Error = fmt.Sprintf("cluster: no live shard for item %d", i)
					continue
				}
				addToGroup(groups, next, i, &g.items[j])
			}
		}
	}
	for _, g := range groups { // rounds exhausted with shards still failing
		for _, i := range g.idx {
			out.Items[i].Error = "cluster: all shards failed"
		}
	}

	out.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	rolagdapi.WriteJSON(w, http.StatusOK, out)
}

func addToGroup(groups map[string]*shardBatch, shard string, i int, item *rolagdapi.CompileRequest) {
	g := groups[shard]
	if g == nil {
		g = &shardBatch{shard: shard}
		groups[shard] = g
	}
	g.idx = append(g.idx, i)
	g.items = append(g.items, *item)
}

// nextShard returns the first successor not known to be down.
func nextShard(succ []string, down map[string]bool) string {
	for _, s := range succ {
		if !down[s] {
			return s
		}
	}
	return ""
}

// runGroups posts every group's sub-batch concurrently, writes
// successful item results into out (marking an item failed-over when
// the shard that served it is not the item's ring home), and returns
// the groups whose shard failed entirely. tooLarge reports a sub-batch
// reply over the read cap; re-routing cannot help it, since every shard
// would send the same reply.
func (rt *Router) runGroups(r *http.Request, groups map[string]*shardBatch, timeoutMs int, out *rolagdapi.BatchResponse, home []string) (failed []*shardBatch, tooLarge bool) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, g := range groups {
		wg.Add(1)
		go func(g *shardBatch) {
			defer wg.Done()
			body, err := json.Marshal(rolagdapi.BatchRequest{Items: g.items, TimeoutMs: timeoutMs})
			if err == nil {
				var status int
				var reply []byte
				status, reply, _, err = rt.forwardCtx(r.Context(), g.shard, "/v1/batch", body)
				if errors.Is(err, errReplyTooLarge) {
					mu.Lock()
					tooLarge = true
					mu.Unlock()
					return
				}
				if err == nil && status == http.StatusOK {
					var sub rolagdapi.BatchResponse
					if err = json.Unmarshal(reply, &sub); err == nil && len(sub.Items) == len(g.idx) {
						rt.routed[g.shard].Add(int64(len(g.idx)))
						// Item results are index-aligned with the sub-batch by
						// the daemon's contract; no lock needed — each item
						// index is owned by exactly one group per round.
						for j, i := range g.idx {
							out.Items[i] = sub.Items[j]
							if g.shard != home[i] {
								rt.failovers.Add(1)
								out.Items[i].FailedOver = true
								out.Items[i].Degraded = true
								out.Items[i].DegradedPasses = append(out.Items[i].DegradedPasses, FailoverPass)
							}
						}
						return
					}
					if err == nil {
						err = fmt.Errorf("cluster: shard %s returned %d items for %d", g.shard, len(sub.Items), len(g.idx))
					}
				} else if err == nil {
					err = fmt.Errorf("cluster: shard %s: HTTP %d", g.shard, status)
				}
			}
			rt.logger().Warn("sub-batch failed", "shard", g.shard, "err", err)
			mu.Lock()
			failed = append(failed, g)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return failed, tooLarge
}

// handleCacheStats aggregates every shard's /v1/cachestats into one
// cluster-wide view: the top-level counters are field-wise sums, the
// per-shard breakdown rides along in Shards. Unreachable shards are
// reported with only their name so a partial cluster is visible, not
// silently smaller.
func (rt *Router) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	names := rt.ring.Shards()
	per := make([]rolagdapi.CacheStats, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			per[i].Shard = name
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rt.shards[name]+"/v1/cachestats", nil)
			if err != nil {
				return
			}
			resp, err := rt.httpc.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var cs rolagdapi.CacheStats
			if json.NewDecoder(io.LimitReader(resp.Body, rt.maxReply)).Decode(&cs) == nil {
				cs.Shard = name
				per[i] = cs
			}
		}(i, name)
	}
	wg.Wait()
	total := rolagdapi.CacheStats{Shards: per}
	for i := range per {
		total.Add(&per[i])
	}
	rolagdapi.WriteJSON(w, http.StatusOK, total)
}

// handleHealth probes every shard's /readyz and reports the fleet.
// The router itself is healthy while it can serve; a dark shard makes
// the fleet "degraded", not down — failover covers its keyspace. The
// live probe results also feed the background health tracker, whose
// current up/suspect/down view rides along in "tracked".
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	names := rt.ring.Shards()
	states := make(map[string]string, len(names))
	var mu sync.Mutex
	var wg sync.WaitGroup
	ready := 0
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			state := "unreachable"
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rt.shards[name]+"/readyz", nil)
			if err == nil {
				if resp, err := rt.httpc.Do(req); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						state = "ready"
					} else {
						state = fmt.Sprintf("not-ready (%d)", resp.StatusCode)
					}
				}
			}
			rt.recordProbe(name, state == "ready")
			mu.Lock()
			states[name] = state
			if state == "ready" {
				ready++
			}
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	status := "ok"
	if ready < len(names) {
		status = "degraded"
	}
	if ready == 0 {
		status = "down"
	}
	tracked := make(map[string]string, len(names))
	for name, st := range rt.health.snapshot() {
		tracked[name] = st.String()
	}
	rolagdapi.WriteJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"ready":   ready,
		"shards":  states,
		"tracked": tracked,
	})
}

// writeMetrics renders the router counters in Prometheus text format.
func (rt *Router) writeMetrics(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("router_requests_total", "Single-compile requests routed.", rt.requests.Load())
	counter("router_batch_requests_total", "Batch requests fanned out.", rt.batches.Load())
	counter("router_batch_items_total", "Batch items multiplexed.", rt.items.Load())
	counter("router_failover_total", "Requests or items served by a non-home shard after failover.", rt.failovers.Load())
	fmt.Fprintf(w, "# HELP router_hedge_total Hedged races by outcome (races never launched count in none).\n")
	fmt.Fprintf(w, "# TYPE router_hedge_total counter\n")
	fmt.Fprintf(w, "router_hedge_total{outcome=%q} %d\n", "primary", rt.hedgePrimary.Load())
	fmt.Fprintf(w, "router_hedge_total{outcome=%q} %d\n", "hedge", rt.hedgeWins.Load())
	fmt.Fprintf(w, "router_hedge_total{outcome=%q} %d\n", "failed", rt.hedgeFailed.Load())
	fmt.Fprintf(w, "# HELP router_routed_total Requests and batch items routed, by shard.\n")
	fmt.Fprintf(w, "# TYPE router_routed_total counter\n")
	names := make([]string, 0, len(rt.routed))
	for name := range rt.routed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "router_routed_total{shard=%q} %d\n", name, rt.routed[name].Load())
	}
	fmt.Fprintf(w, "# HELP router_shard_state Tracked shard health (0=up, 1=suspect, 2=down).\n")
	fmt.Fprintf(w, "# TYPE router_shard_state gauge\n")
	tracked := rt.health.snapshot()
	for _, name := range names {
		fmt.Fprintf(w, "router_shard_state{shard=%q} %d\n", name, int(tracked[name]))
	}
	fmt.Fprintf(w, "# HELP router_shards Shards on the consistent-hash ring.\n")
	fmt.Fprintf(w, "# TYPE router_shards gauge\nrouter_shards %d\n", rt.ring.Len())
	counter("router_trace_dropped_total", "Router trace spans overwritten in the bounded ring before export.",
		int64(rt.obsRing().Dropped()))
	// Fleet latency quantiles per route, from both vantage points: what
	// the router observed end to end and what the shards reported.
	fmt.Fprintf(w, "# HELP router_route_p99_seconds Route p99 latency by vantage (router-observed vs shard-reported fleet merge).\n")
	fmt.Fprintf(w, "# TYPE router_route_p99_seconds gauge\n")
	fmt.Fprintf(w, "router_route_p99_seconds{route=\"/v1/compile\",vantage=\"router\"} %g\n", rt.compileHist.Snapshot().Quantile(0.99))
	fmt.Fprintf(w, "router_route_p99_seconds{route=\"/v1/batch\",vantage=\"router\"} %g\n", rt.batchHist.Snapshot().Quantile(0.99))
	for _, rl := range rt.collector.Routes() {
		fmt.Fprintf(w, "router_route_p99_seconds{route=%q,vantage=\"fleet\"} %g\n", rl.Route, rl.P99Ms/1e3)
	}
}

// Handler builds the router's routes, runtime profiling included,
// behind the tracing middleware.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", rt.handleCompile)
	mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	mux.HandleFunc("GET /v1/cachestats", rt.handleCacheStats)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rt.writeMetrics(w)
	})

	// Fleet telemetry: the aggregated shard view (JSON), the router's
	// own span ring, and the cross-process trace collector.
	mux.HandleFunc("GET /debug/fleet", rt.handleFleet)
	mux.HandleFunc("GET /debug/trace", rt.handleTraceRing)
	mux.HandleFunc("GET /debug/trace/{id}", rt.handleTraceStitch)

	// The same trace adoption as the daemon's, so one trace ID follows
	// a request router → shard → engine → passes.
	mw := &rolagdapi.Middleware{SpanPrefix: "router:", LogMsg: "routed", Ring: rt.traceRing,
		Log: rt.log, Compile: &rt.compileHist, Batch: &rt.batchHist}
	return mw.Handler(mux)
}
