package cluster

// End-to-end tests of the routing layer over real in-process shards:
// key-stable routing, byte-for-byte parity with serial compiles
// (single and batch, including remark streams and degraded flags),
// failover through an induced shard failure, trace propagation, and
// cluster-wide cache-stat aggregation.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rolag/internal/daemon"
	"rolag/internal/obs"
	"rolag/internal/obs/fleet"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
)

// testCluster is a 3-shard cluster plus router, all in-process over
// real HTTP. kill(i) makes shard i unreachable (connection refused);
// refuse/stall toggle softer failure modes per shard.
type testCluster struct {
	router  *Router
	rsrv    *httptest.Server
	daemons []*daemon.Daemon
	shards  []*httptest.Server
	headers []http.Header // last request headers seen per shard (compile/batch only)
	// allHeaders records EVERY compile/batch request's headers per
	// shard, in arrival order — the batch fan-out propagation tests
	// need the full history, not just the last request.
	allHeaders [][]http.Header
	mu         sync.Mutex

	// Per-process span rings: each daemon records into its own ring and
	// the router into routerRing, exactly like separate OS processes
	// would, so trace stitching is end-to-end honest even in-process.
	rings      []*obs.TraceRing
	routerRing *obs.TraceRing

	refuse []atomic.Bool  // shard answers 503 to everything (incl. /readyz)
	stall  []atomic.Int64 // ns to sleep before serving /v1/* (probes unaffected)
	hits   []atomic.Int64 // POST /v1/compile attempts seen, refused or not
}

func newTestCluster(t *testing.T, n int) *testCluster {
	return newTestClusterCfg(t, n, nil)
}

// newTestClusterCfg builds the cluster with a Config hook so tests can
// turn on hedging or speed up the health prober.
func newTestClusterCfg(t *testing.T, n int, mod func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		daemons:    make([]*daemon.Daemon, n),
		shards:     make([]*httptest.Server, n),
		headers:    make([]http.Header, n),
		allHeaders: make([][]http.Header, n),
		rings:      make([]*obs.TraceRing, n),
		routerRing: obs.NewTraceRing(0),
		refuse:     make([]atomic.Bool, n),
		stall:      make([]atomic.Int64, n),
		hits:       make([]atomic.Int64, n),
	}
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		i := i
		tc.shards[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/compile" {
				tc.hits[i].Add(1)
			}
			// Stall applies before refuse so stall+refuse together model a
			// shard that fails slowly (hangs, then errors) — the shape a
			// hedged race needs for both racers to fail.
			if strings.HasPrefix(r.URL.Path, "/v1/") {
				if ns := tc.stall[i].Load(); ns > 0 {
					time.Sleep(time.Duration(ns))
				}
			}
			if tc.refuse[i].Load() {
				http.Error(w, "injected refusal", http.StatusServiceUnavailable)
				return
			}
			if strings.HasPrefix(r.URL.Path, "/v1/compile") || strings.HasPrefix(r.URL.Path, "/v1/batch") {
				tc.mu.Lock()
				tc.headers[i] = r.Header.Clone()
				tc.allHeaders[i] = append(tc.allHeaders[i], r.Header.Clone())
				tc.mu.Unlock()
			}
			tc.daemons[i].Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(tc.shards[i].Close)
		peers[shardName(i)] = tc.shards[i].URL
	}
	for i := 0; i < n; i++ {
		tc.rings[i] = obs.NewTraceRing(0)
		d := daemon.New(daemon.Config{
			Engine:     service.Config{Workers: 2},
			RequestCap: 10 * time.Second,
			ShardID:    shardName(i),
			Peers:      peers,
			TraceRing:  tc.rings[i],
		})
		t.Cleanup(func() { d.Close(context.Background()) })
		tc.daemons[i] = d
	}
	cfg := Config{Shards: peers, TraceRing: tc.routerRing}
	if mod != nil {
		mod(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	t.Cleanup(rt.Close)
	tc.rsrv = httptest.NewServer(rt.Handler())
	t.Cleanup(tc.rsrv.Close)
	return tc
}

// shardIndex finds the test index of a shard by name.
func (tc *testCluster) shardIndex(t *testing.T, name string) int {
	t.Helper()
	for i := range tc.daemons {
		if tc.daemons[i].ShardID() == name {
			return i
		}
	}
	t.Fatalf("no shard named %s", name)
	return -1
}

func shardName(i int) string { return fmt.Sprintf("shard-%c", 'a'+i) }

// kill makes shard i unreachable.
func (tc *testCluster) kill(i int) { tc.shards[i].Close() }

// src returns a rollable function source, distinct per i.
func src(i int) string {
	return fmt.Sprintf(
		"void f%d(int *a) {\n  a[0] = a[0] + %d;\n  a[1] = a[1] + %d;\n  a[2] = a[2] + %d;\n  a[3] = a[3] + %d;\n}",
		i, i+1, i+1, i+1, i+1)
}

// keyOf computes the request's routing key the same way the router
// does.
func keyOf(t *testing.T, cr rolagdapi.CompileRequest) string {
	t.Helper()
	sreq, err := cr.ToService()
	if err != nil {
		t.Fatal(err)
	}
	return service.Key(&sreq)
}

// serialReference compiles items on a fresh standalone daemon, giving
// the byte-level ground truth a cluster run must match.
func serialReference(t *testing.T, items []rolagdapi.CompileRequest) []rolagdapi.CompileResponse {
	t.Helper()
	d := daemon.New(daemon.Config{Engine: service.Config{Workers: 2}, RequestCap: 10 * time.Second})
	t.Cleanup(func() { d.Close(context.Background()) })
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	c := &rolagdapi.Client{BaseURL: srv.URL}
	out := make([]rolagdapi.CompileResponse, len(items))
	for i, it := range items {
		resp, err := c.Compile(context.Background(), &it)
		if err != nil {
			t.Fatalf("serial reference item %d: %v", i, err)
		}
		out[i] = *resp
	}
	return out
}

func TestRouterCompileParityAndKeyAffinity(t *testing.T) {
	tc := newTestCluster(t, 3)
	c := &rolagdapi.Client{BaseURL: tc.rsrv.URL}

	var items []rolagdapi.CompileRequest
	for i := 0; i < 9; i++ {
		items = append(items, rolagdapi.CompileRequest{Source: src(i), Remarks: true})
	}
	want := serialReference(t, items)

	for i, it := range items {
		got, err := c.Compile(context.Background(), &it)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got.IR != want[i].IR {
			t.Errorf("item %d IR differs from serial", i)
		}
		if len(got.Remarks) != len(want[i].Remarks) {
			t.Errorf("item %d remarks differ: %d vs %d", i, len(got.Remarks), len(want[i].Remarks))
		}
		if got.Degraded {
			t.Errorf("item %d degraded on a healthy cluster", i)
		}
		if got.CacheHit {
			t.Errorf("item %d: first compile reported a cache hit", i)
		}
	}

	// Identical requests land on the same shard and hit its cache.
	for i, it := range items {
		got, err := c.Compile(context.Background(), &it)
		if err != nil {
			t.Fatalf("repeat item %d: %v", i, err)
		}
		if !got.CacheHit {
			t.Errorf("repeat item %d missed the cache — key routing is not stable", i)
		}
	}

	// Each shard only compiled the keys it owns.
	var compiles int64
	for _, d := range tc.daemons {
		m := d.Engine().Metrics()
		compiles += m.Compiles
		if m.PeerHits+m.PeerMisses != 0 {
			t.Errorf("shard %s consulted a peer under pure router traffic: %+v", d.ShardID(), m)
		}
	}
	if compiles != int64(len(items)) {
		t.Errorf("cluster compiled %d times for %d distinct keys", compiles, len(items))
	}
}

func TestRouterBatchParity(t *testing.T) {
	tc := newTestCluster(t, 3)
	c := &rolagdapi.Client{BaseURL: tc.rsrv.URL}

	var items []rolagdapi.CompileRequest
	for i := 0; i < 12; i++ {
		items = append(items, rolagdapi.CompileRequest{Source: src(i), Remarks: true})
	}
	want := serialReference(t, items)

	got, err := c.CompileBatch(context.Background(), &rolagdapi.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != len(items) {
		t.Fatalf("batch returned %d items for %d", len(got.Items), len(items))
	}
	shardsSeen := map[string]bool{}
	for i, item := range got.Items {
		if item.Error != "" {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
		if item.IR != want[i].IR {
			t.Errorf("item %d IR differs from serial", i)
		}
		if len(item.Remarks) != len(want[i].Remarks) {
			t.Errorf("item %d remarks differ", i)
		}
		if item.Degraded != want[i].Degraded || item.FailedOver {
			t.Errorf("item %d flags differ: degraded=%v failedOver=%v", i, item.Degraded, item.FailedOver)
		}
		if item.Shard == "" {
			t.Errorf("item %d lacks shard attribution", i)
		}
		shardsSeen[item.Shard] = true
		// The serving shard is the key's ring owner.
		if owner := tc.router.Owner(keyOf(t, items[i])); item.Shard != owner {
			t.Errorf("item %d served by %s, ring owner is %s", i, item.Shard, owner)
		}
	}
	if len(shardsSeen) < 2 {
		t.Errorf("12-item batch used %d shards; fan-out is not spreading", len(shardsSeen))
	}
}

// TestRouterBatchShardFailure induces one shard failure mid-cluster:
// the batch must still return every item, re-routed items must be
// marked failed-over/degraded with the FailoverPass marker, and their
// IR must equal the serial compile byte-for-byte ("degraded, never
// wrong").
func TestRouterBatchShardFailure(t *testing.T) {
	tc := newTestCluster(t, 3)
	c := &rolagdapi.Client{BaseURL: tc.rsrv.URL}

	var items []rolagdapi.CompileRequest
	for i := 0; i < 12; i++ {
		items = append(items, rolagdapi.CompileRequest{Source: src(i), Remarks: true})
	}
	want := serialReference(t, items)

	// Kill the shard that owns item 0's key; remember which items it
	// owned so we can assert they (and only they) failed over.
	deadName := tc.router.Owner(keyOf(t, items[0]))
	owned := map[int]bool{}
	for i := range items {
		if tc.router.Owner(keyOf(t, items[i])) == deadName {
			owned[i] = true
		}
	}
	for i := range tc.daemons {
		if tc.daemons[i].ShardID() == deadName {
			tc.kill(i)
		}
	}

	got, err := c.CompileBatch(context.Background(), &rolagdapi.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	failovers := 0
	for i, item := range got.Items {
		if item.Error != "" {
			t.Fatalf("item %d failed despite live successors: %s", i, item.Error)
		}
		if item.IR != want[i].IR {
			t.Errorf("item %d IR differs after failover — failover must never be wrong", i)
		}
		if owned[i] {
			failovers++
			if !item.FailedOver || !item.Degraded {
				t.Errorf("re-routed item %d not marked failed-over/degraded: %+v", i, item)
			}
			marked := false
			for _, p := range item.DegradedPasses {
				if p == FailoverPass {
					marked = true
				}
			}
			if !marked {
				t.Errorf("re-routed item %d missing %q in degradedPasses: %v", i, FailoverPass, item.DegradedPasses)
			}
			if item.Shard == deadName {
				t.Errorf("item %d claims the dead shard served it", i)
			}
		} else if item.FailedOver || item.Degraded {
			t.Errorf("item %d owned by a live shard marked degraded: %+v", i, item)
		}
	}
	if failovers == 0 {
		t.Fatal("the dead shard owned no items; test needs a bigger batch")
	}
	if got := tc.router.failovers.Load(); got != int64(failovers) {
		t.Errorf("router_failover_total = %d, want %d", got, failovers)
	}
}

// TestRouterCompileShardFailure is the single-compile flavor: the
// request fails over to the ring's next shard and comes back marked
// degraded with the failover pass.
func TestRouterCompileShardFailure(t *testing.T) {
	tc := newTestCluster(t, 3)
	c := &rolagdapi.Client{BaseURL: tc.rsrv.URL}

	cr := rolagdapi.CompileRequest{Source: src(0)}
	want := serialReference(t, []rolagdapi.CompileRequest{cr})[0]
	deadName := tc.router.Owner(keyOf(t, cr))
	for i := range tc.daemons {
		if tc.daemons[i].ShardID() == deadName {
			tc.kill(i)
		}
	}
	got, err := c.Compile(context.Background(), &cr)
	if err != nil {
		t.Fatal(err)
	}
	if got.IR != want.IR {
		t.Error("failover result differs from serial compile")
	}
	if !got.Degraded {
		t.Error("failover result not marked degraded")
	}
	found := false
	for _, p := range got.DegradedPasses {
		if p == FailoverPass {
			found = true
		}
	}
	if !found {
		t.Errorf("degradedPasses = %v, want to contain %q", got.DegradedPasses, FailoverPass)
	}
}

// TestForwardCtxLatencySamplesOnly2xx pins the hedge window's diet:
// a shed 429 turns around fast and must not drag the hedge delay down;
// only successful responses count as latency samples.
func TestForwardCtxLatencySamplesOnly2xx(t *testing.T) {
	var status atomic.Int64
	status.Store(http.StatusTooManyRequests)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(status.Load()))
	}))
	defer srv.Close()
	rt, err := New(Config{Shards: map[string]string{"s": srv.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if _, _, retryable, err := rt.forwardCtx(context.Background(), "s", "/v1/compile", nil); err == nil || !retryable {
		t.Fatalf("429 response: retryable=%v err=%v, want a retryable error", retryable, err)
	}
	if n := rt.lat["s"].n; n != 0 {
		t.Fatalf("shed 429 recorded %d latency samples, want 0", n)
	}
	status.Store(http.StatusOK)
	if _, _, _, err := rt.forwardCtx(context.Background(), "s", "/v1/compile", nil); err != nil {
		t.Fatal(err)
	}
	if n := rt.lat["s"].n; n != 1 {
		t.Fatalf("200 response recorded %d latency samples, want 1", n)
	}
}

func TestRouterTracePropagation(t *testing.T) {
	tc := newTestCluster(t, 3)

	cr := rolagdapi.CompileRequest{Source: src(0)}
	body, _ := json.Marshal(cr)
	req, err := http.NewRequest("POST", tc.rsrv.URL+"/v1/compile", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", "0123456789abcdef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "0123456789abcdef" {
		t.Errorf("router echoed trace ID %q, want the caller's", got)
	}

	// The serving shard must have received the same trace ID.
	owner := tc.router.Owner(keyOf(t, cr))
	for i := range tc.daemons {
		if tc.daemons[i].ShardID() != owner {
			continue
		}
		tc.mu.Lock()
		h := tc.headers[i]
		tc.mu.Unlock()
		if h == nil {
			t.Fatal("owning shard saw no compile request")
		}
		if got := h.Get("X-Trace-Id"); got != "0123456789abcdef" {
			t.Errorf("shard received trace ID %q, want the caller's", got)
		}
	}
}

func TestRouterCacheStatsAggregation(t *testing.T) {
	tc := newTestCluster(t, 3)
	c := &rolagdapi.Client{BaseURL: tc.rsrv.URL}

	var items []rolagdapi.CompileRequest
	for i := 0; i < 6; i++ {
		items = append(items, rolagdapi.CompileRequest{Source: src(i)})
	}
	// Compile everything twice: 6 misses then 6 hits, spread over the
	// fleet.
	for round := 0; round < 2; round++ {
		if _, err := c.CompileBatch(context.Background(), &rolagdapi.BatchRequest{Items: items}); err != nil {
			t.Fatal(err)
		}
	}

	cs, err := c.CacheStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Shards) != 3 {
		t.Fatalf("aggregate lists %d shards, want 3", len(cs.Shards))
	}
	if cs.Requests != 12 || cs.CacheMisses != 6 || cs.CacheHits != 6 {
		t.Errorf("aggregate = %+v, want 12 requests, 6 misses, 6 hits", cs)
	}
	var sum rolagdapi.CacheStats
	for i := range cs.Shards {
		sum.Add(&cs.Shards[i])
	}
	if sum.Requests != cs.Requests || sum.CacheHits != cs.CacheHits {
		t.Errorf("per-shard breakdown (%+v) does not sum to the aggregate (%+v)", sum, cs)
	}
	if got := cs.HitRate(); got != 0.5 {
		t.Errorf("cluster hit rate = %g, want 0.5", got)
	}
}

func TestRouterMetricsText(t *testing.T) {
	tc := newTestCluster(t, 3)
	c := &rolagdapi.Client{BaseURL: tc.rsrv.URL}
	if _, err := c.Compile(context.Background(), &rolagdapi.CompileRequest{Source: src(0)}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(tc.rsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"router_requests_total 1", "router_failover_total 0",
		"router_routed_total{shard=", "router_shards 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router metrics missing %q:\n%s", want, text)
		}
	}
}

func TestRouterHealthz(t *testing.T) {
	tc := newTestCluster(t, 3)
	get := func() (string, int) {
		resp, err := http.Get(tc.rsrv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Status string            `json:"status"`
			Ready  int               `json:"ready"`
			Shards map[string]string `json:"shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Status, out.Ready
	}
	if status, ready := get(); status != "ok" || ready != 3 {
		t.Errorf("healthy fleet: status=%s ready=%d, want ok/3", status, ready)
	}
	tc.kill(1)
	if status, ready := get(); status != "degraded" || ready != 2 {
		t.Errorf("one dead shard: status=%s ready=%d, want degraded/2", status, ready)
	}
}

// TestRouterBodyLimit: the router accepts a body of exactly
// rolagdapi.MaxBodyBytes on /v1/compile and /v1/batch and answers one
// byte more with 413 and the body-too-large code, without reading on.
func TestRouterBodyLimit(t *testing.T) {
	tc := newTestCluster(t, 1)
	// The config names an unknown opt, so an accepted body fails in
	// ToService instead of compiling.
	sized := func(n int, prefix, suffix string) string {
		head := prefix + `{"source":"`
		tail := `","config":{"opt":"wat"}}` + suffix
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}
	for _, c := range []struct {
		path, prefix, suffix string
		fits                 int
	}{
		{"/v1/compile", "", "", http.StatusBadRequest},
		{"/v1/batch", `{"items":[`, `]}`, http.StatusOK},
	} {
		for _, n := range []int{rolagdapi.MaxBodyBytes, rolagdapi.MaxBodyBytes + 1} {
			resp, err := http.Post(tc.rsrv.URL+c.path, "application/json", strings.NewReader(sized(n, c.prefix, c.suffix)))
			if err != nil {
				t.Fatal(err)
			}
			var er rolagdapi.ErrorResponse
			json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			over := n > rolagdapi.MaxBodyBytes
			switch {
			case over && (resp.StatusCode != http.StatusRequestEntityTooLarge || er.Code != rolagdapi.CodeBodyTooLarge):
				t.Errorf("%s one byte over: status %d code %q, want 413 %q", c.path, resp.StatusCode, er.Code, rolagdapi.CodeBodyTooLarge)
			case !over && resp.StatusCode != c.fits:
				t.Errorf("%s at the limit: status %d, want %d", c.path, resp.StatusCode, c.fits)
			}
		}
	}
}

// TestRouterUnrollLimit: the router refuses config.unroll above
// rolagdapi.MaxUnroll itself, with a 400 and the unroll-out-of-range
// code on /v1/compile and on the batch item, and forwards the cap.
func TestRouterUnrollLimit(t *testing.T) {
	tc := newTestCluster(t, 1)
	item := func(unroll int) string {
		return fmt.Sprintf(`{"source":"void f(int *a) { for (int i = 0; i < 16; i++) a[i] = i; }","config":{"unroll":%d}}`, unroll)
	}
	post := func(path, body string, v any) int {
		t.Helper()
		resp, err := http.Post(tc.rsrv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	var er rolagdapi.ErrorResponse
	if code := post("/v1/compile", item(rolagdapi.MaxUnroll), &er); code != http.StatusOK {
		t.Errorf("unroll at the cap: status %d (%s)", code, er.Error)
	}
	er = rolagdapi.ErrorResponse{}
	if code := post("/v1/compile", item(rolagdapi.MaxUnroll+1), &er); code != http.StatusBadRequest || er.Code != rolagdapi.CodeUnrollOutOfRange {
		t.Errorf("unroll one over the cap: status %d code %q, want 400 %q", code, er.Code, rolagdapi.CodeUnrollOutOfRange)
	}
	var br rolagdapi.BatchResponse
	if code := post("/v1/batch", `{"items":[`+item(rolagdapi.MaxUnroll)+`,`+item(rolagdapi.MaxUnroll+1)+`]}`, &br); code != http.StatusOK || len(br.Items) != 2 {
		t.Fatalf("batch: status %d, %d items", code, len(br.Items))
	}
	if it := br.Items[0]; it.Error != "" {
		t.Errorf("batch item at the cap: %s", it.Error)
	}
	if it := br.Items[1]; it.Code != rolagdapi.CodeUnrollOutOfRange {
		t.Errorf("batch item over the cap: error %q code %q, want code %q", it.Error, it.Code, rolagdapi.CodeUnrollOutOfRange)
	}
}

// capShard is a router over one fake shard whose replies are exactly
// size() bytes long, each a valid reply padded with spaces, with the
// router's read cap lowered to replyCap so the test stays small.
const replyCap = 1 << 12

func capShard(t *testing.T, size func() int) *httptest.Server {
	t.Helper()
	pad := func(w http.ResponseWriter, body string) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body+strings.Repeat(" ", size()-len(body)))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", func(w http.ResponseWriter, r *http.Request) {
		pad(w, `{"ir":"x"}`)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		pad(w, `{"items":[{"ir":"x"}]}`)
	})
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		pad(w, `{"traceEvents":[{"name":"s","ph":"X","ts":1,"dur":1,"pid":1,"tid":1}]}`)
	})
	mux.HandleFunc("GET /v1/cachestats", func(w http.ResponseWriter, r *http.Request) {
		pad(w, `{"requests":7}`)
	})
	shard := httptest.NewServer(mux)
	t.Cleanup(shard.Close)
	rt, err := New(Config{Shards: map[string]string{"a": shard.URL}, ProbeInterval: -1, ScrapeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.maxReply = replyCap
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestRouterShardReplyCap relays a compile and a batch reply of exactly
// the read cap and answers one byte more with 502 reply-too-large.
func TestRouterShardReplyCap(t *testing.T) {
	n := 0
	srv := capShard(t, func() int { return n })
	for _, c := range []struct{ path, body string }{
		{"/v1/compile", `{"source":"int f(void) { return 0; }"}`},
		{"/v1/batch", `{"items":[{"source":"int f(void) { return 0; }"}]}`},
	} {
		for _, n = range []int{replyCap, replyCap + 1} {
			resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var er rolagdapi.ErrorResponse
			json.Unmarshal(data, &er)
			if n > replyCap {
				if resp.StatusCode != http.StatusBadGateway || er.Code != rolagdapi.CodeReplyTooLarge {
					t.Errorf("%s reply one byte over the cap: status %d code %q, want 502 %q", c.path, resp.StatusCode, er.Code, rolagdapi.CodeReplyTooLarge)
				}
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s reply at the cap: status %d (%s), want 200", c.path, resp.StatusCode, data)
			}
			if c.path == "/v1/compile" && len(data) != replyCap {
				t.Errorf("/v1/compile relayed %d bytes of a %d-byte reply", len(data), replyCap)
			}
		}
	}
}

// TestRouterCacheStatsCap reads a shard's /v1/cachestats reply of
// exactly the read cap and refuses one a byte longer: the aggregate
// keeps a name-only row for the shard, and the fleet scrape records
// the cap as the shard's scrape error.
func TestRouterCacheStatsCap(t *testing.T) {
	n := 0
	srv := capShard(t, func() int { return n })
	for _, n = range []int{replyCap, replyCap + 1} {
		var cs rolagdapi.CacheStats
		getJSON(t, srv.URL+"/v1/cachestats", &cs)
		if len(cs.Shards) != 1 || cs.Shards[0].Shard != "a" {
			t.Fatalf("reply of %d bytes: shard rows %+v, want one row for a", n, cs.Shards)
		}
		want := int64(0) // the name-only row of a failed fetch
		if n <= replyCap {
			want = 7
		}
		if got := cs.Shards[0].Requests; got != want {
			t.Errorf("reply of %d bytes (cap %d): shard a requests = %d, want %d", n, replyCap, got, want)
		}
		var ov fleet.Overview
		getJSON(t, srv.URL+"/debug/fleet?refresh=1", &ov)
		if len(ov.Shards) != 1 {
			t.Fatalf("reply of %d bytes: fleet rows %+v, want one", n, ov.Shards)
		}
		row := ov.Shards[0]
		if n <= replyCap && (!row.ScrapeOK || row.Requests != 7) {
			t.Errorf("reply at the cap: fleet row %+v, want a good scrape of 7 requests", row)
		}
		if n > replyCap && (row.ScrapeOK || !strings.Contains(row.ScrapeError, rolagdapi.ErrReplyTooLarge.Error())) {
			t.Errorf("reply one byte over the cap: fleet row ok=%v error %q, want %q", row.ScrapeOK, row.ScrapeError, rolagdapi.ErrReplyTooLarge)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestRouterTraceSegmentCap stitches a shard's trace segment of exactly
// the read cap and drops one a byte longer.
func TestRouterTraceSegmentCap(t *testing.T) {
	n := 0
	srv := capShard(t, func() int { return n })
	for _, n = range []int{replyCap, replyCap + 1} {
		resp, err := http.Get(srv.URL + "/debug/trace/feedbeeffeedbeef")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		procs, err := fleet.Processes(data)
		if err != nil {
			t.Fatalf("segment of %d bytes: stitched trace: %v", n, err)
		}
		if got, want := procs["a"] > 0, n <= replyCap; got != want {
			t.Errorf("segment of %d bytes (cap %d): stitched = %v, want %v", n, replyCap, got, want)
		}
	}
}
