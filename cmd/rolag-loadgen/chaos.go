package main

// Cluster-level chaos mode (-chaos): the same local cluster and
// zipfian traffic as the benchmark, but every router→shard link runs
// through armed network fault injection and the shard owning the
// hottest key is crashed un-drained mid-load, then restarted from its
// last periodic snapshot. Three gates decide the exit code:
//
//   - parity: every successful response not degraded by the engine
//     matches the serial reference (network failover must never change
//     bytes);
//   - availability: completed/issued ≥ minAvailability despite the
//     crash and the faulty links;
//   - warm restart: the restarted victim loaded snapshot entries and
//     served snapshot-warm hits afterward.
//
// The JSON written to -out (schema rolag/cluster-chaos/v1) records the
// run, the victim's timeline, hedge outcomes, and each gate's verdict.

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"slices"
	"time"

	"rolag/internal/cluster"
	"rolag/internal/faultpoint"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
)

// ChaosSchema identifies the BENCH_chaos.json layout.
const ChaosSchema = "rolag/cluster-chaos/v1"

// ChaosResult is the machine-readable record of one chaos run.
type ChaosResult struct {
	Schema string `json:"schema"`
	Config struct {
		runConfig
		NetFaultProb     float64 `json:"net_fault_prob"`
		KillFrac         float64 `json:"kill_frac"`
		RestartDelayMs   float64 `json:"restart_delay_ms"`
		SnapshotInterval string  `json:"snapshot_interval"`
		MinAvailability  float64 `json:"min_availability"`
	} `json:"config"`
	tally
	Issued       int64   `json:"issued"`
	Availability float64 `json:"availability"`
	Latency      struct {
		P50Ms float64 `json:"p50_ms"`
		P99Ms float64 `json:"p99_ms"`
		MaxMs float64 `json:"max_ms"`
	} `json:"latency"`
	Hedge struct {
		PrimaryWins int64 `json:"primary_wins"`
		HedgeWins   int64 `json:"hedge_wins"`
		BothFailed  int64 `json:"both_failed"`
	} `json:"hedge"`
	Victim struct {
		Shard            string  `json:"shard"`
		KilledAtRequest  int     `json:"killed_at_request"`
		DownMs           float64 `json:"down_ms"`
		SnapshotEntries  int64   `json:"snapshot_entries_loaded"`
		SnapshotWarmHits int64   `json:"snapshot_warm_hits"`
	} `json:"victim"`
	ShardStates map[string]string    `json:"shard_states"`
	Cluster     rolagdapi.CacheStats `json:"cluster"`
	HitRate     float64              `json:"hit_rate"`
	Gates       struct {
		Parity       bool `json:"parity"`
		Availability bool `json:"availability"`
		WarmRestart  bool `json:"warm_restart"`
	} `json:"gates"`
}

func runChaos(cfg config) error {
	snapDir, err := os.MkdirTemp("", "rolag-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(snapDir)
	h, err := newHarness(cfg, slog.LevelError, snapDir, 0)
	if err != nil {
		return err
	}
	defer h.close()

	// Arm the network. Only "net:" sites fire — the engine's own fault
	// sites stay dark, so a wrong byte can only come from the cluster.
	faultpoint.EnableSites(faultpoint.NetSitePrefix, faultpoint.Options{
		Seed:  seed,
		Prob:  chaosNetProb,
		Kinds: []faultpoint.Kind{faultpoint.KindStall, faultpoint.KindError, faultpoint.KindDrop},
		Stall: 40 * time.Millisecond,
	})
	defer faultpoint.Reset()
	hostSite := make(map[string]string, len(h.shards))
	for _, s := range h.shards {
		hostSite[s.addr] = faultpoint.NetSite(s.cfg.ShardID)
	}

	// The router crosses the same faulty links as real traffic, probes
	// fast enough to notice the crash within a few hundred ms, and
	// hedges around stalls and blackholes.
	if err := h.startRouter(cluster.Config{
		HTTPClient: &http.Client{
			Timeout: cfg.timeout,
			Transport: &faultpoint.Transport{SiteFor: func(req *http.Request) string {
				return hostSite[req.URL.Host]
			}},
		},
		ProbeInterval: 150 * time.Millisecond,
		ProbeTimeout:  300 * time.Millisecond,
		DownAfter:     2,
		Hedge:         true,
	}); err != nil {
		return err
	}

	res := &ChaosResult{Schema: ChaosSchema}
	res.Config.runConfig = cfg.record()
	res.Config.NetFaultProb = chaosNetProb
	res.Config.KillFrac = chaosKillFrac
	res.Config.RestartDelayMs = float64(chaosRestartDelay) / float64(time.Millisecond)
	res.Config.SnapshotInterval = chaosSnapshotInterval.String()
	res.Config.MinAvailability = minAvailability

	// The victim is the shard owning the hottest zipf key (index 0): the
	// crash hits the busiest slice of the keyspace, and the hot key's
	// presence in the victim's snapshot makes warm hits observable fast.
	sreq, err := (&rolagdapi.CompileRequest{Source: h.corpus[0].Src}).ToService()
	if err != nil {
		return err
	}
	owner := h.rt.Owner(service.Key(&sreq))
	victim := h.shards[slices.IndexFunc(h.shards, func(s *shard) bool { return s.cfg.ShardID == owner })]
	res.Victim.Shard = owner

	// The kill runs on its own clock, at the kill request's arrival
	// offset, so neither it nor the restart delays the schedule. The
	// victim comes back after chaosRestartDelay even when the schedule
	// ends first, so its counters are always read from the restarted
	// daemon.
	picks := schedule(cfg.n, cfg.requests, cfg.rate, 0)
	res.Victim.KilledAtRequest = min(len(picks)-1, max(1, int(chaosKillFrac*float64(cfg.requests))))
	restarted := make(chan error, 1)
	time.AfterFunc(picks[res.Victim.KilledAtRequest].at, func() {
		down, err := crashRestart(victim)
		res.Victim.DownMs = float64(down / time.Millisecond)
		restarted <- err
	})
	t := h.drive(picks)
	if err := <-restarted; err != nil {
		return err
	}
	res.tally = *t
	res.Issued = int64(cfg.requests)
	res.Availability = float64(res.Completed) / float64(res.Issued)
	res.Latency.P50Ms = pct(t.lat, 50)
	res.Latency.P99Ms = pct(t.lat, 99)
	res.Latency.MaxMs = pct(t.lat, 100)
	res.Hedge.PrimaryWins, res.Hedge.HedgeWins, res.Hedge.BothFailed = h.rt.HedgeTotals()
	res.ShardStates = make(map[string]string)
	for name, st := range h.rt.ShardStates() {
		res.ShardStates[name] = st.String()
	}

	// The restarted victim's own counters prove the warm restart: it
	// loaded entries from its pre-crash snapshot and served hits out of
	// them.
	vm := victim.d.Engine().Metrics()
	res.Victim.SnapshotEntries = vm.SnapshotEntries
	res.Victim.SnapshotWarmHits = vm.SnapshotWarmHits

	// Fleet-wide counters through the router (the faulty links may hide
	// a shard from one aggregation attempt; stats are informational).
	faultpoint.Reset()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if cs, err := h.router.CacheStats(ctx); err == nil {
		res.Cluster = *cs
		res.HitRate = cs.HitRate()
	}
	cancel()

	res.Gates.Parity = res.Parity.Mismatched == 0 && res.Parity.Checked > 0
	res.Gates.Availability = res.Availability >= minAvailability
	res.Gates.WarmRestart = res.Victim.SnapshotEntries > 0 && res.Victim.SnapshotWarmHits > 0
	if err := writeRecord(cfg.out, res); err != nil {
		return err
	}

	var f failures
	f.check(res.Gates.Parity, "GATE parity failed: %d mismatched of %d checked",
		res.Parity.Mismatched, res.Parity.Checked)
	f.check(res.Gates.Availability, "GATE availability failed: %.4f < %.4f",
		res.Availability, minAvailability)
	f.check(res.Gates.WarmRestart, "GATE warm-restart failed: victim loaded %d entries, served %d warm hits",
		res.Victim.SnapshotEntries, res.Victim.SnapshotWarmHits)
	return f.err()
}

// crashRestart kills s like a dead process, keeps it down for
// chaosRestartDelay, and restarts it on its old port from its snapshot.
// The crash must not outrun the victim's only memory, so a snapshot is
// forced first if the periodic one has not been written yet.
func crashRestart(s *shard) (time.Duration, error) {
	if s.d.Engine().Metrics().SnapshotSaves == 0 {
		if _, err := s.d.SaveSnapshotNow(); err != nil {
			return 0, fmt.Errorf("forcing victim snapshot: %w", err)
		}
	}
	killed := time.Now()
	s.crash()
	time.Sleep(chaosRestartDelay)
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return 0, fmt.Errorf("restart %s: %w", s.cfg.ShardID, err)
	}
	s.start(ln)
	return time.Since(killed), nil
}
