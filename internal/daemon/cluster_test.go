package daemon

// Tests for the cluster surface of the daemon: the peer cache export
// endpoint, fetch-on-miss peer caching between two shards, the batch
// endpoint's parity with serial compiles, and /v1/cachestats.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"rolag"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// testCluster spawns n in-process shards that know each other as
// peers, returning the daemons and their base URLs by shard name.
func testCluster(t *testing.T, n int) ([]*Daemon, map[string]string) {
	t.Helper()
	// Membership (name → URL) must exist before the daemons, so
	// allocate the listeners first and start the servers against
	// placeholder handlers that delegate once the daemon exists.
	daemons := make([]*Daemon, n)
	peers := make(map[string]string, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			daemons[i].Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(servers[i].Close)
		peers[shardName(i)] = servers[i].URL
	}
	for i := 0; i < n; i++ {
		d := New(Config{
			Engine:     service.Config{Workers: 2},
			RequestCap: 10 * time.Second,
			ShardID:    shardName(i),
			Peers:      peers,
		})
		t.Cleanup(func() { d.Close(context.Background()) })
		daemons[i] = d
	}
	return daemons, peers
}

func shardName(i int) string { return fmt.Sprintf("shard-%c", 'a'+i) }

func TestCacheExportEndpoint(t *testing.T) {
	_, srv := newTestDaemon(t, service.Config{}, 10*time.Second)

	resp, err := http.Get(srv.URL + "/v1/cache/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("uncached key: status %d, want 404", resp.StatusCode)
	}

	// Compile once, then export by the response's cache key.
	cr := rolagdapi.CompileRequest{Source: testSrc}
	sreq, err := cr.ToService()
	if err != nil {
		t.Fatal(err)
	}
	key := service.Key(&sreq)
	body, _ := json.Marshal(cr)
	if resp, _ := postCompile(t, srv, string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	eresp, err := http.Get(srv.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("cached key: status %d, want 200", eresp.StatusCode)
	}
	var ce service.CacheEntry
	if err := json.NewDecoder(eresp.Body).Decode(&ce); err != nil {
		t.Fatal(err)
	}
	if ce.IR == "" || ce.BinaryAfter == 0 {
		t.Fatalf("exported entry incomplete: %+v", ce)
	}
}

// TestPeerCacheFetchOnMiss is the coherence core: a key compiled on
// its home shard is served byte-identically by every other shard via
// one peer fetch, with the hit/miss counters advancing on the right
// side.
func TestPeerCacheFetchOnMiss(t *testing.T) {
	daemons, peers := testCluster(t, 2)

	// Find a source whose key is homed on shard 0 so the test is
	// deterministic about who compiles and who peer-fetches.
	var cr rolagdapi.CompileRequest
	var key string
	for i := 0; ; i++ {
		cr = rolagdapi.CompileRequest{Source: fmt.Sprintf(
			"void f%d(int *a) {\n  a[0] = a[0] + 1;\n  a[1] = a[1] + 1;\n  a[2] = a[2] + 1;\n  a[3] = a[3] + 1;\n}", i)}
		sreq, err := cr.ToService()
		if err != nil {
			t.Fatal(err)
		}
		key = service.Key(&sreq)
		if daemons[0].ring.Owner(key) == daemons[0].shardID {
			break
		}
	}

	body, _ := json.Marshal(cr)
	post := func(url string) rolagdapi.CompileResponse {
		t.Helper()
		resp, err := http.Post(url+"/v1/compile", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out rolagdapi.CompileResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	home := post(peers[shardName(0)])
	if home.CacheHit {
		t.Fatal("first compile on the home shard reported a cache hit")
	}
	// The other shard misses locally, fetches from the home shard, and
	// must neither compile nor differ by a byte.
	other := post(peers[shardName(1)])
	if !other.CacheHit {
		t.Error("peer-fetched result not reported as a cache hit")
	}
	if other.IR != home.IR || other.BinaryAfter != home.BinaryAfter {
		t.Error("peer-fetched result differs from the home shard's")
	}
	m := daemons[1].Engine().Metrics()
	if m.PeerHits != 1 {
		t.Errorf("shard-b peer hits = %d, want 1", m.PeerHits)
	}
	if m.Compiles != 0 {
		t.Errorf("shard-b compiled %d times, want 0 (peer cache should have answered)", m.Compiles)
	}
	// The entry is now in shard-b's local cache: a repeat request must
	// not fetch again.
	post(peers[shardName(1)])
	if m := daemons[1].Engine().Metrics(); m.PeerHits != 1 {
		t.Errorf("repeat request peer-fetched again: peer hits = %d", m.PeerHits)
	}

	// A key homed here but never compiled: peer fetch must not even be
	// attempted (the miss is ours to compile).
	m0 := daemons[0].Engine().Metrics()
	if m0.PeerHits+m0.PeerMisses != 0 {
		t.Errorf("home shard consulted a peer for its own key: %+v", m0)
	}
}

// TestPeerCacheMissCompilesLocally pins the degrade path: when the
// home shard doesn't have the key either, the fetching shard counts a
// peer miss and compiles locally.
func TestPeerCacheMissCompilesLocally(t *testing.T) {
	daemons, peers := testCluster(t, 2)

	var cr rolagdapi.CompileRequest
	for i := 0; ; i++ {
		cr = rolagdapi.CompileRequest{Source: fmt.Sprintf("void g%d() {}", i)}
		sreq, err := cr.ToService()
		if err != nil {
			t.Fatal(err)
		}
		if daemons[0].ring.Owner(service.Key(&sreq)) == shardName(0) {
			break
		}
	}
	body, _ := json.Marshal(cr)
	resp, err := http.Post(peers[shardName(1)]+"/v1/compile", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	m := daemons[1].Engine().Metrics()
	if m.PeerMisses != 1 || m.PeerHits != 0 {
		t.Errorf("peer counters = hits %d misses %d, want 0/1", m.PeerHits, m.PeerMisses)
	}
	if m.Compiles != 1 {
		t.Errorf("compiles = %d, want 1 (local compile after peer miss)", m.Compiles)
	}
}

// TestBatchEndpointParity: every item of a /v1/batch reply equals what
// rolag.Build makes of the same request, mapped through ToService as
// rolagd maps it: IR, BinaryAfter, loop counts, the node histogram and
// the remark stream. The items cover hand-written rolls, an Angha
// slice under the three §V.A configurations (none, RoLAG with remarks,
// LLVM reroll) and TSVC kernels unrolled 8x, where the LLVM baseline
// rerolls.
func TestBatchEndpointParity(t *testing.T) {
	_, srv := newTestDaemon(t, service.Config{}, 10*time.Second)

	var items []rolagdapi.CompileRequest
	for i := 0; i < 6; i++ {
		items = append(items, rolagdapi.CompileRequest{
			Source: fmt.Sprintf(
				"void f%d(int *a) {\n  a[0] = a[0] + %d;\n  a[1] = a[1] + %d;\n  a[2] = a[2] + %d;\n  a[3] = a[3] + %d;\n}",
				i, i+1, i+1, i+1, i+1),
			Remarks: true,
		})
	}
	for _, fn := range angha.Generate(30, 1) {
		items = append(items,
			rolagdapi.CompileRequest{Source: fn.Src, Config: rolagdapi.CompileConfig{Name: fn.Name, Opt: "none"}},
			rolagdapi.CompileRequest{Source: fn.Src, Config: rolagdapi.CompileConfig{Name: fn.Name, Opt: "rolag"}, Remarks: true},
			rolagdapi.CompileRequest{Source: fn.Src, Config: rolagdapi.CompileConfig{Name: fn.Name, Opt: "llvm"}})
	}
	for _, k := range tsvc.Kernels()[:4] {
		items = append(items, rolagdapi.CompileRequest{Source: k.Src, Config: rolagdapi.CompileConfig{Name: k.Name, Opt: "llvm", Unroll: 8}})
	}

	bb, _ := json.Marshal(rolagdapi.BatchRequest{Items: items})
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(string(bb)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	var out rolagdapi.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != len(items) {
		t.Fatalf("batch returned %d items, want %d", len(out.Items), len(items))
	}
	var rolled, rerolled int
	for i, item := range out.Items {
		what := fmt.Sprintf("item %d (%+v)", i, items[i].Config)
		if item.Error != "" {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
		if item.Degraded {
			t.Fatalf("item %d degraded: %v", i, item.DegradedPasses)
		}
		sreq, err := items[i].ToService()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := rolag.Build(sreq.Source, sreq.Config)
		if err != nil {
			t.Fatalf("item %d reference build: %v", i, err)
		}
		want := rolagdapi.CompileResponse{
			IR:          ref.Module.String(),
			BinaryAfter: ref.BinaryAfter,
			Rerolled:    ref.Rerolled,
			Remarks:     ref.Remarks,
		}
		if ref.Stats != nil {
			want.LoopsRolled = ref.Stats.LoopsRolled
			want.NodeCounts = rolagdapi.NodeCountsToWire(ref.Stats.NodeCounts)
		}
		rolled += want.LoopsRolled
		rerolled += want.Rerolled
		if item.IR != want.IR {
			t.Errorf("%s: IR differs from rolag.Build", what)
		}
		if item.BinaryAfter != want.BinaryAfter || item.LoopsRolled != want.LoopsRolled || item.Rerolled != want.Rerolled {
			t.Errorf("%s: binaryAfter/loopsRolled/rerolled %d/%d/%d, rolag.Build %d/%d/%d", what,
				item.BinaryAfter, item.LoopsRolled, item.Rerolled, want.BinaryAfter, want.LoopsRolled, want.Rerolled)
		}
		if !reflect.DeepEqual(item.NodeCounts, want.NodeCounts) {
			t.Errorf("%s: node counts %v, rolag.Build %v", what, item.NodeCounts, want.NodeCounts)
		}
		if !reflect.DeepEqual(item.Remarks, want.Remarks) {
			t.Errorf("%s: remark stream differs from rolag.Build (%d vs %d remarks)", what, len(item.Remarks), len(want.Remarks))
		}
	}
	if rolled == 0 || rerolled == 0 {
		t.Errorf("items rolled %d and rerolled %d loops; the parity check must compare both", rolled, rerolled)
	}
}

func TestBatchEndpointPerItemErrors(t *testing.T) {
	_, srv := newTestDaemon(t, service.Config{}, 10*time.Second)
	bb, _ := json.Marshal(rolagdapi.BatchRequest{Items: []rolagdapi.CompileRequest{
		{Source: "void ok() {}"},
		{Source: "int broken( {"},
		{Source: "void ok2() {}", Config: rolagdapi.CompileConfig{Opt: "wat"}},
	}})
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(string(bb)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out rolagdapi.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Items[0].Error != "" || out.Items[0].IR == "" {
		t.Errorf("good item failed: %+v", out.Items[0])
	}
	if out.Items[1].Error == "" {
		t.Error("parse-error item did not report an error")
	}
	if out.Items[2].Error == "" || !strings.Contains(out.Items[2].Error, "unknown opt") {
		t.Errorf("bad-config item error = %q, want unknown opt", out.Items[2].Error)
	}

	// An empty batch is a request error, not an empty success.
	r2, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(`{"items":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", r2.StatusCode)
	}
}

func TestCacheStatsEndpoint(t *testing.T) {
	_, srv := newTestDaemon(t, service.Config{}, 10*time.Second)
	body, _ := json.Marshal(map[string]any{"source": testSrc})
	postCompile(t, srv, string(body))
	postCompile(t, srv, string(body))

	resp, err := http.Get(srv.URL + "/v1/cachestats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cs rolagdapi.CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if cs.Requests != 2 || cs.CacheMisses != 1 || cs.CacheHits != 1 || cs.CacheEntries != 1 {
		t.Errorf("cachestats = %+v, want 2 requests, 1 miss, 1 hit, 1 entry", cs)
	}
	if got := cs.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", got)
	}
}

// TestPeerMetricsSeries checks the new Prometheus series are exported.
func TestPeerMetricsSeries(t *testing.T) {
	_, srv := newTestDaemon(t, service.Config{}, 10*time.Second)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rolagd_peer_cache_hit_total", "rolagd_peer_cache_miss_total"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestPeerReplyCapped: a peer's /v1/cache reply is read through the
// reply cap. One that streams past the cap, or one that does not
// decode, is a peer miss: the shard compiles locally and answers.
func TestPeerReplyCapped(t *testing.T) {
	const replyCap = 4 << 10
	for _, tc := range []struct {
		name  string
		reply func(w io.Writer)
	}{
		{"over-cap", func(w io.Writer) {
			// A well-formed entry whose IR alone is 16x the cap.
			io.WriteString(w, `{"ir":"`)
			io.WriteString(w, strings.Repeat("x", 16*replyCap))
			io.WriteString(w, `"}`)
		}},
		{"undecodable", func(w io.Writer) { io.WriteString(w, `{"ir": 12`) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				tc.reply(w)
			}))
			defer peer.Close()
			var d *Daemon
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				d.Handler().ServeHTTP(w, r)
			}))
			defer srv.Close()
			d = New(Config{
				Engine:     service.Config{Workers: 1},
				RequestCap: 10 * time.Second,
				ShardID:    "self",
				Peers:      map[string]string{"self": srv.URL, "peer": peer.URL},
			})
			defer d.Close(context.Background())
			d.maxPeerReply = replyCap

			var cr rolagdapi.CompileRequest
			for i := 0; ; i++ {
				cr = rolagdapi.CompileRequest{Source: fmt.Sprintf("void g%d() {}", i)}
				sreq, err := cr.ToService()
				if err != nil {
					t.Fatal(err)
				}
				if d.ring.Owner(service.Key(&sreq)) == "peer" {
					break
				}
			}
			body, _ := json.Marshal(cr)
			resp, err := http.Post(srv.URL+"/v1/compile", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			var got rolagdapi.CompileResponse
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, decode error %v", resp.StatusCode, err)
			}
			if got.CacheHit || strings.Contains(got.IR, "xxxx") {
				t.Errorf("peer reply served: cacheHit %v, IR %.40q", got.CacheHit, got.IR)
			}
			m := d.Engine().Metrics()
			if m.PeerMisses != 1 || m.PeerHits != 0 || m.Compiles != 1 {
				t.Errorf("peer hits %d, misses %d, compiles %d; want 0, 1, 1", m.PeerHits, m.PeerMisses, m.Compiles)
			}
		})
	}
}
