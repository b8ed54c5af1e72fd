package main

// The one in-process cluster harness behind every mode: boot shards and
// a router on loopback, draw the seeded request schedule, drive it
// open-loop with byte parity against a serial reference, and write the
// record.

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"rolag/internal/cluster"
	"rolag/internal/daemon"
	"rolag/internal/obs"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
	"rolag/internal/workloads/angha"
)

// harness is one local cluster plus the corpus it serves and the serial
// reference every reply is checked against.
type harness struct {
	corpus  []angha.Function
	ref     []string // serial-reference IR, by corpus index
	timeout time.Duration
	logger  *slog.Logger

	peers  map[string]string // shard name → base URL
	shards []*shard
	rt     *cluster.Router
	rsrv   *http.Server
	router *rolagdapi.Client
}

// newHarness generates the corpus, compiles its serial reference, and
// starts cfg.shards shards. A non-empty snapDir gives each shard a
// snapshot file written every chaosSnapshotInterval; traceBuf > 0 gives
// each its own span ring, as separate processes would have.
func newHarness(cfg config, level slog.Level, snapDir string, traceBuf int) (*harness, error) {
	h := &harness{
		corpus:  angha.Generate(cfg.n, seed),
		timeout: cfg.timeout,
		logger:  slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})),
	}
	if err := h.reference(); err != nil {
		return nil, err
	}
	// Bind every port before building any daemon: the membership URLs
	// must exist first.
	lns := make([]net.Listener, cfg.shards)
	h.peers = make(map[string]string, cfg.shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		name := fmt.Sprintf("shard-%c", 'a'+i)
		h.peers[name] = "http://" + ln.Addr().String()
		s := &shard{addr: ln.Addr().String(), cfg: daemon.Config{
			Engine:     service.Config{Workers: workers},
			RequestCap: cfg.timeout,
			Log:        h.logger,
			ShardID:    name,
			Peers:      h.peers,
		}}
		if snapDir != "" {
			s.cfg.SnapshotPath = filepath.Join(snapDir, name+".snapshot")
			s.cfg.SnapshotInterval = chaosSnapshotInterval
		}
		if traceBuf > 0 {
			s.cfg.TraceRing = obs.NewTraceRing(traceBuf)
		}
		h.shards = append(h.shards, s)
	}
	for i, s := range h.shards {
		s.start(lns[i])
	}
	return h, nil
}

// reference compiles every corpus function once, in order, on a
// standalone daemon over real HTTP — the wire path the cluster serves.
func (h *harness) reference() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ref := &shard{cfg: daemon.Config{Engine: service.Config{Workers: workers}, RequestCap: time.Minute, Log: h.logger}}
	ref.start(ln)
	defer ref.crash()
	c := &rolagdapi.Client{BaseURL: "http://" + ln.Addr().String()}
	h.ref = make([]string, len(h.corpus))
	for i, fn := range h.corpus {
		resp, err := c.Compile(context.Background(), &rolagdapi.CompileRequest{Source: fn.Src})
		if err != nil {
			return fmt.Errorf("serial reference %s: %w", fn.Name, err)
		}
		h.ref[i] = resp.IR
	}
	return nil
}

// shard is one rolagd replica. crash kills it like a dead process
// (listener dropped, no drain, no goodbye snapshot); start on a new
// listener for addr brings it back with the same snapshot path. Its
// fields need no lock: one goroutine at a time starts, crashes or reads
// a shard's daemon, and the driver only uses its fixed addr.
type shard struct {
	cfg  daemon.Config
	addr string
	d    *daemon.Daemon
	srv  *http.Server
}

func (s *shard) start(ln net.Listener) {
	s.d = daemon.New(s.cfg)
	s.srv = &http.Server{Handler: s.d.Handler()}
	go s.srv.Serve(ln)
}

func (s *shard) crash() {
	s.srv.Close()
	s.d.Crash()
}

// startRouter serves a router over the shards; rcfg's Shards and Log
// are filled in here.
func (h *harness) startRouter(rcfg cluster.Config) error {
	rcfg.Shards, rcfg.Log = h.peers, h.logger
	rt, err := cluster.New(rcfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return err
	}
	h.rt, h.rsrv = rt, &http.Server{Handler: rt.Handler()}
	go h.rsrv.Serve(ln)
	h.router = &rolagdapi.Client{BaseURL: "http://" + ln.Addr().String()}
	return nil
}

// close stops the router and every shard.
func (h *harness) close() {
	if h.rt != nil {
		h.rsrv.Close()
		h.rt.Close()
	}
	for _, s := range h.shards {
		s.crash()
	}
}

// pick is one scheduled request: its corpus key, whether it bypasses
// the router for a round-robin shard, and its arrival offset.
type pick struct {
	idx    int
	direct bool
	at     time.Duration
}

// schedule draws the seeded request sequence. Keys are zipfian over the
// corpus, so a popular head repeats while a long tail stays cold.
// Arrivals are Poisson at rate per second; the generator is open loop,
// so a slow cluster shows up as latency, as in production. A directFrac
// share bypasses the router the way clients behind a dumb L4 balancer
// would, exercising the fetch-on-miss peer cache tier. Its coin is
// drawn only when directFrac > 0, so a router-only schedule draws the
// same keys whatever the direct share of other modes.
func schedule(n, requests int, rate, directFrac float64) []pick {
	zrng := rand.New(rand.NewSource(seed + 1))
	zipf := rand.NewZipf(zrng, zipfS, 1, uint64(n-1))
	arng := rand.New(rand.NewSource(seed + 2))
	picks := make([]pick, requests)
	var t float64
	for i := range picks {
		t += arng.ExpFloat64() / rate
		picks[i] = pick{idx: int(zipf.Uint64()), at: time.Duration(t * float64(time.Second))}
		if directFrac > 0 {
			picks[i].direct = zrng.Float64() < directFrac
		}
	}
	return picks
}

// tally is what one drive observed. Its exported fields are record
// fields, with the same JSON names in every mode that embeds it.
type tally struct {
	Wall      float64 `json:"wall_seconds"` // from start to the last reply
	Completed int64   `json:"completed"`
	Errors    int64   `json:"errors"`
	Degraded  int64   `json:"degraded"`
	Failovers int64   `json:"failovers"`
	Parity    parity  `json:"parity"`

	lat      []float64 // ms per completed request, ascending
	traceIDs []string  // of completed requests, in issue order
}

// drive issues each pick at its offset on its own goroutine and checks
// every reply against the serial reference. It sleeps until each
// absolute offset, so oversleeping never accumulates into a lower
// offered rate.
func (h *harness) drive(picks []pick) *tally {
	direct := make([]*rolagdapi.Client, len(h.shards))
	for i, s := range h.shards {
		direct[i] = &rolagdapi.Client{BaseURL: "http://" + s.addr}
	}
	replies := make([]*rolagdapi.CompileResponse, len(picks))
	lat := make([]float64, len(picks))
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range picks {
		time.Sleep(time.Until(start.Add(p.at)))
		c := h.router
		if p.direct {
			c = direct[i%len(direct)]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), h.timeout)
			defer cancel()
			t0 := time.Now()
			resp, err := c.Compile(ctx, &rolagdapi.CompileRequest{Source: h.corpus[p.idx].Src})
			if err == nil {
				replies[i], lat[i] = resp, time.Since(t0).Seconds()*1000
			}
		}()
	}
	wg.Wait()
	t := &tally{Wall: time.Since(start).Seconds()}
	for i, resp := range replies {
		if resp == nil {
			t.Errors++
			continue
		}
		t.Completed++
		t.lat = append(t.lat, lat[i])
		if resp.TraceID != "" {
			t.traceIDs = append(t.traceIDs, resp.TraceID)
		}
		if resp.Degraded {
			t.Degraded++
			if slices.Contains(resp.DegradedPasses, cluster.FailoverPass) {
				t.Failovers++
			}
			// Router failover must never change bytes; only engine-level
			// degradation (a pass skipped under a real fault) may.
			if slices.ContainsFunc(resp.DegradedPasses, func(p string) bool { return p != cluster.FailoverPass }) {
				continue
			}
		}
		t.Parity.Checked++
		if idx := picks[i].idx; resp.IR != h.ref[idx] {
			t.Parity.Mismatched++
			fmt.Fprintf(os.Stderr, "rolag-loadgen: PARITY VIOLATION on corpus[%d]\n", idx)
		}
	}
	sort.Float64s(t.lat)
	return t
}

// pct reads the p-th percentile from an ascending slice.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// writeRecord writes v as indented JSON to path, or to stdout when path
// is empty.
func writeRecord(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// failures counts failed gates; each prints its reason as it fails.
type failures int

func (f *failures) check(ok bool, format string, args ...any) {
	if !ok {
		fmt.Fprintf(os.Stderr, "rolag-loadgen: "+format+"\n", args...)
		*f++
	}
}

func (f failures) err() error {
	if f > 0 {
		return fmt.Errorf("%d gate(s) failed", int(f))
	}
	return nil
}
