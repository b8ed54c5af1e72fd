package cluster

// Tests of request hedging: the rotating latency window, a
// stalled home shard losing the race to its successor (byte-identical
// answer, honestly marked failed-over), and a healthy fast cluster
// never serving a hedged answer in the home shard's place.

import (
	"context"
	"testing"
	"time"

	"rolag/internal/rolagdapi"
)

// TestLatWindowQuantile pins the rotating window: no quantile below
// hedgeMinSamples, an outlier raises the p95, the outlier survives one
// generation of fast samples and is gone after two.
func TestLatWindowQuantile(t *testing.T) {
	var w latWindow
	if _, ok := w.quantile(0.95); ok {
		t.Fatal("quantile on an empty window must report no data")
	}
	// Below the minimum sample count the window still refuses.
	for i := 0; i < hedgeMinSamples-1; i++ {
		w.add(time.Millisecond)
	}
	if _, ok := w.quantile(0.95); ok {
		t.Fatalf("quantile with %d samples must report no data", hedgeMinSamples-1)
	}
	w.add(100 * time.Millisecond)
	q, ok := w.quantile(0.95)
	if !ok {
		t.Fatal("quantile with enough samples reported no data")
	}
	// 15x1ms+1x100ms: the p95 rank falls in the outlier's (50ms, 100ms]
	// bucket.
	if q <= 50*time.Millisecond || q > 100*time.Millisecond {
		t.Fatalf("p95 of 15x1ms+1x100ms = %v, want in (50ms, 100ms]", q)
	}
	if q, _ := w.quantile(0.5); q > time.Millisecond {
		t.Fatalf("p50 = %v, want <= 1ms", q)
	}
	// One generation of fast samples later the outlier's generation is
	// still the last full one.
	for i := 0; i < hedgeGenSize; i++ {
		w.add(2 * time.Millisecond)
	}
	if q, _ := w.quantile(0.999); q <= 50*time.Millisecond {
		t.Fatalf("p99.9 one generation after the outlier = %v, want > 50ms", q)
	}
	// After two generations both have rotated and the outlier is gone.
	for i := 0; i < hedgeGenSize; i++ {
		w.add(2 * time.Millisecond)
	}
	if q, _ := w.quantile(0.999); q > 2500*time.Microsecond {
		t.Fatalf("p99.9 two generations after the outlier = %v, want <= 2.5ms", q)
	}
}

func TestHedgeDelayClamped(t *testing.T) {
	tc := newTestClusterCfg(t, 2, func(cfg *Config) {
		cfg.ProbeInterval = -1 // no prober; this test never serves traffic
		cfg.Hedge = true
		cfg.HedgeMinDelay = 5 * time.Millisecond
		cfg.HedgeMaxDelay = 50 * time.Millisecond
	})
	rt := tc.router
	// Cold shard: the fixed cold-start delay (25ms) is inside the clamp.
	if d := rt.hedgeDelay("shard-a"); d != hedgeColdDelay {
		t.Fatalf("cold delay = %v, want %v", d, hedgeColdDelay)
	}
	for i := 0; i < hedgeWindowSize; i++ {
		rt.lat["shard-a"].add(time.Second) // a very slow shard...
	}
	if d := rt.hedgeDelay("shard-a"); d != 50*time.Millisecond {
		t.Fatalf("slow-shard delay = %v, want the 50ms clamp", d)
	}
	for i := 0; i < hedgeWindowSize; i++ {
		rt.lat["shard-a"].add(time.Microsecond) // ...then a very fast one
	}
	if d := rt.hedgeDelay("shard-a"); d != 5*time.Millisecond {
		t.Fatalf("fast-shard delay = %v, want the 5ms floor", d)
	}
}

// TestRouterHedgeWinsOnStall is the headline behavior: the home shard
// stalls, the hedge fires to the key's successor, the successor's
// byte-identical answer is served first and marked failed-over, and the
// canceled straggler does not poison the home shard's health.
func TestRouterHedgeWinsOnStall(t *testing.T) {
	tc := newTestClusterCfg(t, 3, func(cfg *Config) {
		cfg.ProbeInterval = -1 // isolate hedging from the prober
		cfg.Hedge = true
	})
	c := &rolagdapi.Client{BaseURL: tc.rsrv.URL}

	cr := rolagdapi.CompileRequest{Source: src(0)}
	want := serialReference(t, []rolagdapi.CompileRequest{cr})[0]
	home := tc.router.Owner(keyOf(t, cr))
	tc.stall[tc.shardIndex(t, home)].Store(int64(2 * time.Second))

	start := time.Now()
	got, err := c.Compile(context.Background(), &cr)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hedged compile took %v; the stalled home shard was waited out", elapsed)
	}
	if got.IR != want.IR {
		t.Error("hedged answer differs from serial compile — hedging must never be wrong")
	}
	if !got.Degraded {
		t.Error("answer served by the hedge shard not marked degraded")
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
	_, hedgeWins, _ := tc.router.HedgeTotals()
	if hedgeWins != 1 {
		t.Errorf("hedge wins = %d, want 1", hedgeWins)
	}
	// The loser was canceled by the race, not observed failing: its
	// tracked health must still be up.
	if st := tc.router.ShardStates()[home]; st != ShardUp {
		t.Errorf("stalled home shard demoted to %v by a canceled hedge loser", st)
	}
}

// TestRouterFailoverSkipsRaceFailedShard: when a hedged race fails on
// both the primary and the secondary, the failover walk must advance
// past the secondary — it just failed; retrying it as the next primary
// would spend a round trip on a known-bad shard mid-outage.
func TestRouterFailoverSkipsRaceFailedShard(t *testing.T) {
	tc := newTestClusterCfg(t, 3, func(cfg *Config) {
		cfg.ProbeInterval = -1
		cfg.Hedge = true
	})
	c := &rolagdapi.Client{BaseURL: tc.rsrv.URL}

	cr := rolagdapi.CompileRequest{Source: src(0)}
	want := serialReference(t, []rolagdapi.CompileRequest{cr})[0]
	// The key's first two successors fail slowly: stall well past the
	// cold hedge delay, then 503. The hedge fires at the secondary, both
	// racers fail, and the walk must go straight to the third shard.
	order := tc.router.ring.Successors(keyOf(t, cr), 3)
	for _, name := range order[:2] {
		i := tc.shardIndex(t, name)
		tc.stall[i].Store(int64(6 * hedgeColdDelay))
		tc.refuse[i].Store(true)
	}

	got, err := c.Compile(context.Background(), &cr)
	if err != nil {
		t.Fatal(err)
	}
	if got.IR != want.IR {
		t.Error("failover answer differs from serial compile")
	}
	if !got.Degraded {
		t.Error("third-shard answer not marked degraded")
	}
	if _, _, failed := tc.router.HedgeTotals(); failed != 1 {
		t.Fatalf("hedge failed-races = %d, want 1 (the race must actually fire and lose)", failed)
	}
	// Each losing racer was contacted exactly once: the secondary in the
	// race, never again as a primary.
	for j, name := range order[:2] {
		if hits := tc.hits[tc.shardIndex(t, name)].Load(); hits != 1 {
			t.Errorf("race-failed shard %d (%s) saw %d compile attempts, want 1", j, name, hits)
		}
	}
}

// TestRouterHedgeQuietOnHealthyCluster pins the no-false-positive side:
// with fast shards, hedged answers never displace the home shard's, so
// nothing is marked degraded and the hedge never wins.
func TestRouterHedgeQuietOnHealthyCluster(t *testing.T) {
	tc := newTestClusterCfg(t, 3, func(cfg *Config) {
		cfg.ProbeInterval = -1
		cfg.Hedge = true
		// A high floor keeps a merely slow cold compile (CI under -race)
		// from triggering a race this test asserts never fires.
		cfg.HedgeMinDelay = 300 * time.Millisecond
	})
	c := &rolagdapi.Client{BaseURL: tc.rsrv.URL}
	for i := 0; i < 6; i++ {
		cr := rolagdapi.CompileRequest{Source: src(i)}
		got, err := c.Compile(context.Background(), &cr)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got.Degraded {
			t.Errorf("item %d degraded on a healthy hedging cluster", i)
		}
	}
	if _, hedgeWins, _ := tc.router.HedgeTotals(); hedgeWins != 0 {
		t.Errorf("hedge wins = %d on a healthy cluster, want 0", hedgeWins)
	}
}
