package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"rolag/internal/obs"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
)

// Workload sizes. They are constants so that two runs with one seed do
// the same work.
const (
	// anghaBase is how many seeded functions angha-cold cycles through.
	// Round r of the cycle appends the comment "// round r" to every
	// source, so each request has its own cache key and misses, while
	// its compiled output is that of the base function.
	anghaBase = 1000
	// anghaWarm is how many compiles warm a fresh angha-cold daemon up
	// during set-up. Their sources carry a warm-up comment, so none of
	// them shares a cache key with a measured request.
	anghaWarm = 64
	// zipfKeys is zipf-warm's key set, all primed during set-up.
	zipfKeys = 256
	// zipfS is the zipf exponent of zipf-warm's key popularity.
	zipfS = 1.2
	// zipfShards is how many rolagd shards sit behind the router.
	zipfShards = 2
	// rampFrom is where the capacity ramp of zipf-warm's traced run
	// starts, as a multiple of the fixed rate (itself about half the
	// capacity).
	rampFrom = 1.5
	// rampGrowth is the rate factor between capacity-ramp steps.
	rampGrowth = 1.08
	// rampStepMin is the shortest ramp step; a step also lasts long
	// enough to hold rampSamples requests, so its p99 has ten samples
	// beyond it.
	rampStepMin = 400 * time.Millisecond
	rampSamples = 1100
)

// params carries the command line into a workload.
type params struct {
	seed     int64
	dur      time.Duration
	trace    bool
	conns    int     // client connections and closed-loop clients: nproc
	zipfRate float64 // zipf-warm's fixed open-loop rate, requests/s
}

// run is a workload's result before it is printed.
type run struct {
	attempted, failed int
	metrics           map[string]float64
	details           map[string]any
}

func newRun() *run { return &run{metrics: map[string]float64{}, details: map[string]any{}} }

// fail counts n failed operations and keeps the first error's text.
func (r *run) fail(n int, err error) {
	if n == 0 {
		return
	}
	r.failed += n
	if _, ok := r.details["first_error"]; !ok {
		r.details["first_error"] = err.Error()
	}
}

// setup runs boot reps times, closing every system but the last, and
// returns the last with the median boot time in seconds: setup_s.
func setup[T any](reps int, boot func() (T, error), closeFn func(T)) (T, float64, error) {
	var (
		sys   T
		err   error
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeFn(sys)
		}
		t := time.Now()
		if sys, err = boot(); err != nil {
			return sys, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return sys, median(times), nil
}

// allocMark starts counting Go heap allocation.
type allocMark uint64

func markAllocs() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark(ms.TotalAlloc)
}

// perOp records alloc_kb_per_op: bytes allocated since the mark over
// ops completed operations.
func (a allocMark) perOp(r *run, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ops > 0 {
		r.metrics["alloc_kb_per_op"] = float64(ms.TotalAlloc-uint64(a)) / 1024 / float64(ops)
	}
}

// liveHeap records heap_mb, the live heap after a forced collection;
// it is taken while the measured system is still up.
func liveHeap(r *run) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.metrics["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
}

// latencyMetrics records the median and the tail (see summarize) of
// lat, in ms, with the sample count and the samples beyond the tail.
func (r *run) latencyMetrics(lat []float64) {
	s := summarize(lat)
	r.metrics["latency_p50_ms"] = s.P50
	r.metrics["latency_p99_ms"] = s.Tail
	r.details["latency"] = map[string]any{"samples": s.N, "beyond_p99": s.Beyond, "p99_quantile": s.TailQ}
}

// outputCheck compares every response for a key with the first one
// seen, and after the timed phase the first ones with the reference.
type outputCheck struct {
	mu     sync.Mutex
	first  []*output
	counts []int
}

func newOutputCheck(n int) *outputCheck {
	return &outputCheck{first: make([]*output, n), counts: make([]int, n)}
}

var errMismatch = errors.New("output differs from the serial fail-hard reference")

func (c *outputCheck) record(key int, o output) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[key]++
	if c.first[key] == nil {
		c.first[key] = &o
		return nil
	}
	if *c.first[key] != o {
		return errMismatch
	}
	return nil
}

// against returns how many recorded outputs differ from ref.
func (c *outputCheck) against(ref []output) int {
	bad := 0
	for k, f := range c.first {
		if f != nil && *f != ref[k] {
			bad += c.counts[k]
		}
	}
	return bad
}

func wireOutput(resp *rolagdapi.CompileResponse) output {
	return output{IR: resp.IR, Asm: resp.Asm, Text: resp.TextBytes}
}

// withoutRodata drops the rodata size, which the wire format does not
// carry, so a reference output compares with a served one.
func withoutRodata(ref []output) []output {
	out := make([]output, len(ref))
	for i, o := range ref {
		o.Rodata = 0
		out[i] = o
	}
	return out
}

// sendCompile posts one request and turns every outcome the benchmark
// does not accept into an error.
func sendCompile(c *rolagdapi.Client, req *rolagdapi.CompileRequest) (*rolagdapi.CompileResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	resp, err := c.Compile(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Degraded {
		return nil, fmt.Errorf("%w: %v", errDegraded, resp.DegradedPasses)
	}
	return resp, nil
}

// salted returns base request i of a cycle over reqs, with the round
// comment that makes its source, and so its cache key, unique.
func salted(reqs []rolagdapi.CompileRequest, i int) (int, rolagdapi.CompileRequest) {
	k, round := i%len(reqs), i/len(reqs)
	req := reqs[k]
	if round > 0 {
		req.Source += fmt.Sprintf("\n// round %d\n", round)
	}
	return k, req
}

// anghaCold: a closed loop of conns clients sends distinct functions to
// a fresh standalone daemon, so every request is a cache miss and a
// cache write on the production fail-soft path.
func anghaCold(p params) (*run, error) {
	jobs, reqs, err := anghaJobs(anghaBase, p.seed)
	if err != nil {
		return nil, err
	}
	if p.trace {
		return traceAngha(p, jobs, reqs)
	}
	r := newRun()
	d, setupS, err := setup(9, func() (*standalone, error) { return bootAngha(reqs, p.conns) }, (*standalone).close)
	if err != nil {
		return nil, err
	}
	defer d.close()
	r.metrics["setup_s"] = setupS
	client, tr := newClient(d.srv.url, p.conns)
	defer tr.CloseIdleConnections()

	check := newOutputCheck(len(reqs))
	mark := markAllocs()
	outs, elapsed := closedLoop(p.conns, p.dur, func(i int) error {
		k, req := salted(reqs, i)
		resp, err := sendCompile(client, &req)
		if err != nil {
			return err
		}
		return check.record(k, wireOutput(resp))
	})
	var (
		lat  []float64
		keys []int
	)
	for _, o := range outs {
		if o.Err != nil {
			r.fail(1, o.Err)
			continue
		}
		lat = append(lat, ms(o.Lat))
		keys = append(keys, o.I%len(reqs))
	}
	mark.perOp(r, len(lat))
	liveHeap(r)
	r.attempted = len(outs)
	r.metrics["throughput_ops"] = float64(len(lat)) / elapsed.Seconds()
	// Every base function is compiled once a round, so its latency is
	// the median over the rounds.
	r.latencyMetrics(perInputMedian(lat, keys))

	ref, err := reference(jobs, true)
	if err != nil {
		return nil, err
	}
	r.fail(check.against(withoutRodata(ref)), errMismatch)
	r.metrics["code_bytes"] = float64(textBytes(ref))
	return r, nil
}

// bootAngha is angha-cold's set-up: it boots a fresh daemon and warms
// it up with the first anghaWarm functions, conns at a time, so that
// lazy initialisation and heap growth finish before timing starts.
func bootAngha(reqs []rolagdapi.CompileRequest, conns int) (*standalone, error) {
	d, err := bootDaemon()
	if err != nil {
		return nil, err
	}
	warm := make([]rolagdapi.CompileRequest, anghaWarm)
	for i := range warm {
		warm[i] = reqs[i%len(reqs)]
		warm[i].Source += "\n// warm-up\n"
	}
	client, tr := newClient(d.srv.url, conns)
	defer tr.CloseIdleConnections()
	if _, err := prime(client, warm, conns); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

func textBytes(outs []output) int64 {
	var n int64
	for _, o := range outs {
		n += o.Text
	}
	return n
}

// tsvcUnroll8 compiles the TSVC kernels serially in one goroutine on
// the `rolagc -emit asm` path: rolag.Build with unroll 8, RoLAG and
// flatten, then the backend. No service and no sandbox.
func tsvcUnroll8(p params) (*run, error) {
	jobs := tsvcJobs(p.seed)
	if p.trace {
		return traceCompile(p, jobs, false)
	}
	r := newRun()
	// Set-up is a warm-up pass over the suite: the compiler's lazy
	// initialisation and heap growth finish before timing starts.
	_, setupS, err := setup(5, func() (struct{}, error) {
		for _, j := range jobs {
			if _, err := build(j, false, false); err != nil {
				return struct{}{}, fmt.Errorf("%s: %w", j.name, err)
			}
		}
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	r.metrics["setup_s"] = setupS

	check := newOutputCheck(len(jobs))
	rng := rand.New(rand.NewSource(p.seed + 1))
	var (
		lat  []float64
		keys []int
	)
	mark := markAllocs()
	start := time.Now()
	for time.Since(start) < p.dur {
		for _, k := range rng.Perm(len(jobs)) {
			if time.Since(start) >= p.dur {
				break
			}
			r.attempted++
			t := time.Now()
			o, err := build(jobs[k], false, false)
			d := time.Since(t)
			if err == nil {
				err = check.record(k, o)
			}
			if err != nil {
				r.fail(1, err)
				continue
			}
			lat = append(lat, ms(d))
			keys = append(keys, k)
		}
	}
	elapsed := time.Since(start)
	mark.perOp(r, len(lat))
	liveHeap(r)
	r.metrics["throughput_ops"] = float64(len(lat)) / elapsed.Seconds()
	// Every kernel is compiled once a pass, so its latency is the median
	// over the passes.
	r.latencyMetrics(perInputMedian(lat, keys))

	ref, err := reference(jobs, false)
	if err != nil {
		return nil, err
	}
	r.fail(check.against(ref), errMismatch)
	r.metrics["code_bytes"] = float64(textBytes(ref))
	return r, nil
}

// warmCluster is zipf-warm's system: the cluster plus the primed
// response of every key.
type warmCluster struct {
	c      *shardCluster
	client *rolagdapi.Client
	tr     *http.Transport
	primed []*rolagdapi.CompileResponse
}

func (w *warmCluster) close() {
	w.tr.CloseIdleConnections()
	w.c.close()
}

func bootWarm(reqs []rolagdapi.CompileRequest, conns int) (*warmCluster, error) {
	c, err := bootCluster(zipfShards)
	if err != nil {
		return nil, err
	}
	client, tr := newClient(c.rsrv.url, conns)
	w := &warmCluster{c: c, client: client, tr: tr}
	if w.primed, err = prime(client, reqs, conns); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// zipfWarm: a router in front of two shards, every key primed; the
// measured phase is an open-loop Poisson stream of zipf-keyed cache
// reads at a fixed rate. The traced run adds a stepped ramp to capacity.
func zipfWarm(p params) (*run, error) {
	if p.zipfRate <= 0 {
		return nil, errors.New("zipf-warm needs --zipf-rate")
	}
	jobs, reqs, err := anghaJobs(zipfKeys, p.seed)
	if err != nil {
		return nil, err
	}
	typicalFirst(jobs, reqs)
	if p.trace {
		w, err := bootWarm(reqs, p.conns)
		if err != nil {
			return nil, err
		}
		defer w.close()
		return traceZipf(p, w, jobs, reqs)
	}
	w, setupS, err := setup(3, func() (*warmCluster, error) { return bootWarm(reqs, p.conns) }, (*warmCluster).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	r := newRun()
	r.metrics["setup_s"] = setupS

	check := newOutputCheck(len(reqs))
	for k, resp := range w.primed {
		check.record(k, wireOutput(resp))
	}
	send := func(k int) error {
		resp, err := sendCompile(w.client, &reqs[k])
		if err != nil {
			return err
		}
		return check.record(k, wireOutput(resp))
	}
	mark := markAllocs()
	res := openLoop(poissonZipf(p.seed+1, p.zipfRate, p.dur, zipfKeys, zipfS), send)
	fixed := stepOf(p.zipfRate, p.dur, res)
	mark.perOp(r, fixed.Lat.N)
	r.attempted += len(res)
	var lat []float64
	for _, o := range res {
		if o.Err != nil {
			r.fail(1, o.Err)
			continue
		}
		lat = append(lat, ms(o.Lat))
	}
	r.metrics["throughput_ops"] = fixed.Achieved
	r.latencyMetrics(lat)
	r.details["late_p99_ms"] = fixed.Late.Tail
	liveHeap(r)

	ref, err := reference(jobs, true)
	if err != nil {
		return nil, err
	}
	r.fail(check.against(withoutRodata(ref)), errMismatch)
	r.metrics["code_bytes"] = float64(textBytes(ref))
	return r, nil
}

// typicalFirst reorders jobs and reqs alike so that key 0, the most
// popular zipf rank, is the function of median source length and the
// ranks after it move outward in length from there. The hottest keys
// then carry typical payloads, so the traffic's payload mix does not
// hinge on which function a seed happens to make most popular.
func typicalFirst(jobs []job, reqs []rolagdapi.CompileRequest) {
	bySize := make([]int, len(jobs))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return len(jobs[bySize[a]].src) < len(jobs[bySize[b]].src) })
	mid := len(bySize) / 2
	order := make([]int, 0, len(bySize))
	for d := 0; len(order) < len(bySize); d++ {
		if mid+d < len(bySize) {
			order = append(order, bySize[mid+d])
		}
		if d > 0 && mid-d >= 0 {
			order = append(order, bySize[mid-d])
		}
	}
	js := append([]job(nil), jobs...)
	rs := append([]rolagdapi.CompileRequest(nil), reqs...)
	for i, k := range order {
		jobs[i], reqs[i] = js[k], rs[k]
	}
}

// rampStep is how long one ramp step at rate lasts.
func rampStep(rate float64) time.Duration {
	d := time.Duration(rampSamples / rate * float64(time.Second))
	if d < rampStepMin {
		d = rampStepMin
	}
	return d
}

func rampDetails(steps []step) []map[string]any {
	out := make([]map[string]any, len(steps))
	for i, s := range steps {
		out[i] = map[string]any{
			"rate": s.Rate, "achieved": s.Achieved, "p50_ms": s.Lat.P50, "p99_ms": s.Lat.Tail, "late_p99_ms": s.Late.Tail,
			"samples": s.Lat.N, "failed": s.Failed, "ok": s.ok(),
		}
	}
	return out
}

// traceCompile is the traced run of a compile workload. It alternates
// passes over jobs: an untraced pass through the production entry
// point (build) and a traced pass that replays the same compiles stage
// by stage with a timer around every call. Both must produce the
// serial fail-hard reference's bytes. engine selects angha-cold's
// fail-soft, IR-printing path; otherwise the rolagc path.
func traceCompile(p params, jobs []job, engine bool) (*run, error) {
	r := newRun()
	ref, err := reference(jobs, engine)
	if err != nil {
		return nil, err
	}
	l := newLedger()
	var (
		untraced, traced time.Duration
		nu, nt, passes   int
		gcPause          uint64
	)
	phase0 := phaseNanos()
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < p.dur; pass++ {
		tracing := pass%2 == 1
		var ms0 runtime.MemStats
		if tracing {
			obs.EnableSpanStats(true)
			runtime.ReadMemStats(&ms0)
			passes++
		}
		t := time.Now()
		for i, j := range jobs {
			var o output
			var err error
			if tracing {
				o, err = l.replay(j, engine, engine)
			} else {
				o, err = build(j, engine, engine)
			}
			r.attempted++
			if err == nil && o != ref[i] {
				err = errMismatch
			}
			if err != nil {
				r.fail(1, err)
			}
		}
		d := time.Since(t)
		if tracing {
			obs.EnableSpanStats(false)
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs
			traced += d
			nt += len(jobs)
		} else {
			untraced += d
			nu += len(jobs)
		}
	}
	phase1 := phaseNanos()

	perOp := func(d time.Duration) float64 { return ms(d) / float64(nt) }
	for layer, d := range l.t {
		r.metrics[layer+"_ms"] = perOp(d)
	}
	for _, ph := range rolagPhases {
		r.metrics["rolag."+ph+"_ms"] = perOp(time.Duration(phase1[ph] - phase0[ph]))
	}
	for name, n := range l.n {
		r.metrics[name] = float64(n) / float64(passes)
	}
	if a := l.n["rolag.align_attempts"]; a > 0 {
		r.metrics["rolag.roll_rate"] = float64(l.n["rolag.loops_rolled"]) / float64(a)
	}
	r.metrics["go.gc_pause_ms"] = float64(gcPause) / 1e6 / traced.Seconds()
	r.metrics["unattributed_share"] = 1 - float64(l.total())/float64(traced)
	r.metrics["trace_overhead_share"] = (float64(traced)/float64(nt))/(float64(untraced)/float64(nu)) - 1
	r.details["traced_functions"] = nt
	r.details["untraced_functions"] = nu
	return r, nil
}

// traceAngha is angha-cold's traced run: the compile ledger of its
// engine path, a short closed loop through a fresh daemon for the
// service counters, the cache-key and JSON costs of its payloads, and
// the warm serving layers from zipf-warm's traced run.
func traceAngha(p params, jobs []job, reqs []rolagdapi.CompileRequest) (*run, error) {
	r, err := traceCompile(params{dur: p.dur * 3 / 5}, jobs, true)
	if err != nil {
		return nil, err
	}
	d, err := bootDaemon()
	if err != nil {
		return nil, err
	}
	defer d.close()
	client, tr := newClient(d.srv.url, p.conns)
	defer tr.CloseIdleConnections()
	resps := make([]*rolagdapi.CompileResponse, len(reqs))
	var mu sync.Mutex
	outs, _ := closedLoop(p.conns, p.dur/10, func(i int) error {
		k, req := salted(reqs, i)
		resp, err := sendCompile(client, &req)
		if err == nil {
			mu.Lock()
			resps[k] = resp
			mu.Unlock()
		}
		return err
	})
	r.attempted += len(outs)
	for _, o := range outs {
		if o.Err != nil {
			r.fail(1, o.Err)
		}
	}
	cs := d.d.CacheStats()
	r.metrics["service.hit_rate"] = cs.HitRate()
	r.metrics["service.shed"] = float64(cs.Shed)

	var keyT, jsonT time.Duration
	var nj int
	for k := range reqs {
		sreq, err := reqs[k].ToService()
		if err != nil {
			return nil, err
		}
		_, d := timeKey(&sreq)
		keyT += d
		if resps[k] != nil {
			jt, err := timeJSON(&reqs[k], resps[k])
			if err != nil {
				return nil, err
			}
			jsonT += jt
			nj++
		}
	}
	r.metrics["service.key_us"] = us(keyT) / float64(len(reqs))
	if nj > 0 {
		r.metrics["rolagdapi.json_us"] = us(jsonT) / float64(nj)
	}

	// The serving layers a cache miss does not reach, from zipf-warm's
	// traced run on the same seed.
	z, err := zipfWarm(params{seed: p.seed, dur: p.dur * 3 / 10, trace: true, conns: p.conns, zipfRate: p.zipfRate})
	if err != nil {
		return nil, fmt.Errorf("zipf-warm: %w", err)
	}
	for _, name := range warmLayers {
		r.metrics[name] = z.metrics[name]
	}
	r.attempted += z.attempted
	r.fail(z.failed, fmt.Errorf("zipf-warm: %v", z.details["first_error"]))
	r.details["zipf_warm"] = z.details
	return r, nil
}

// warmLayers are the per-layer metrics angha-cold's traced run takes
// from zipf-warm's: the cache hit, the daemon's HTTP, the router hop and
// the open-loop generator.
var warmLayers = []string{
	"service.hit_us", "daemon.http_us", "cluster.hop_us", "cluster.hedges",
	"cluster.capacity_rps", "loadgen.late_p99_ms",
}

// timeKey returns service.Key, the content address of one request,
// and how long it took.
func timeKey(req *service.Request) (string, time.Duration) {
	t := time.Now()
	k := service.Key(req)
	return k, time.Since(t)
}

// timeJSON times the codec work of one compile exchange: the request
// and the response are each marshalled and unmarshalled once.
func timeJSON(req *rolagdapi.CompileRequest, resp *rolagdapi.CompileResponse) (time.Duration, error) {
	t := time.Now()
	b, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	var cr rolagdapi.CompileRequest
	if err := json.Unmarshal(b, &cr); err != nil {
		return 0, err
	}
	b, err = json.Marshal(resp)
	if err != nil {
		return 0, err
	}
	var out rolagdapi.CompileResponse
	if err := json.Unmarshal(b, &out); err != nil {
		return 0, err
	}
	return time.Since(t), nil
}

// traceZipf is zipf-warm's traced run on a primed cluster, in three
// equal parts: the fixed-rate open loop again, with span stats on, for
// the generator's lateness and the serving counters; a sequential probe
// loop that prices each serving layer by difference; and the stepped
// capacity ramp.
func traceZipf(p params, w *warmCluster, jobs []job, reqs []rolagdapi.CompileRequest) (*run, error) {
	r := newRun()
	check := newOutputCheck(len(reqs))
	for k, resp := range w.primed {
		check.record(k, wireOutput(resp))
	}
	send := func(k int) error {
		resp, err := sendCompile(w.client, &reqs[k])
		if err != nil {
			return err
		}
		return check.record(k, wireOutput(resp))
	}

	cs0 := w.c.cacheStats()
	_, hedges0, _ := w.c.router.HedgeTotals()
	var ms0, ms1 runtime.MemStats
	obs.EnableSpanStats(true)
	runtime.ReadMemStats(&ms0)
	fixedDur := p.dur / 3
	res := openLoop(poissonZipf(p.seed+1, p.zipfRate, fixedDur, zipfKeys, zipfS), send)
	runtime.ReadMemStats(&ms1)
	obs.EnableSpanStats(false)
	fixed := stepOf(p.zipfRate, fixedDur, res)
	r.attempted += len(res)
	r.fail(fixed.Failed, errors.New("open-loop request failed"))
	cs1 := w.c.cacheStats()
	_, hedges1, _ := w.c.router.HedgeTotals()
	if n := cs1.Requests - cs0.Requests; n > 0 {
		r.metrics["service.hit_rate"] = float64(cs1.CacheHits+cs1.DedupHits+cs1.PeerHits-cs0.CacheHits-cs0.DedupHits-cs0.PeerHits) / float64(n)
	}
	r.metrics["service.shed"] = float64(cs1.Shed - cs0.Shed)
	r.metrics["cluster.hedges"] = float64(hedges1 - hedges0)
	r.metrics["loadgen.late_p99_ms"] = fixed.Late.Tail
	r.metrics["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / fixedDur.Seconds()

	// Probe loop: alternate an untraced burst of sequential router
	// requests with traced iterations that time, for each key, the
	// router round trip, the owning shard's round trip, the engine hit
	// with no HTTP, the cache key and the JSON codec.
	seq := poissonZipf(p.seed+2, 1000, 10*time.Second, zipfKeys, zipfS)
	directs := make(map[string]*rolagdapi.Client)
	for _, name := range w.c.names {
		c, tr := newClient(w.c.urls[name], 1)
		defer tr.CloseIdleConnections()
		directs[name] = c
	}
	var (
		untraced, router, direct, hit, key, codec time.Duration
		nu, nt                                    int
	)
	i := 0
	next := func() int { k := seq[i%len(seq)].Key; i++; return k }
	start := time.Now()
	for time.Since(start) < fixedDur {
		t := time.Now()
		for b := 0; b < 50; b++ {
			if err := send(next()); err != nil {
				r.fail(1, err)
			}
			r.attempted++
			nu++
		}
		untraced += time.Since(t)
		obs.EnableSpanStats(true)
		for b := 0; b < 50; b++ {
			k := next()
			sreq, err := reqs[k].ToService()
			if err != nil {
				return nil, err
			}
			ck, d := timeKey(&sreq)
			key += d
			owner := w.c.router.Owner(ck)
			r.attempted += 3
			t := time.Now()
			if err := send(k); err != nil {
				r.fail(1, err)
			}
			router += time.Since(t)
			t = time.Now()
			resp, err := sendCompile(directs[owner], &reqs[k])
			direct += time.Since(t)
			if err == nil {
				err = check.record(k, wireOutput(resp))
			}
			if err != nil {
				r.fail(1, err)
			}
			t = time.Now()
			sresp, err := w.c.daemons[owner].Engine().Compile(context.Background(), sreq)
			hit += time.Since(t)
			if err == nil && !sresp.CacheHit {
				err = errors.New("engine probe missed the cache")
			}
			if err != nil {
				r.fail(1, err)
			}
			jt, err := timeJSON(&reqs[k], w.primed[k])
			if err != nil {
				return nil, err
			}
			codec += jt
			nt++
		}
		obs.EnableSpanStats(false)
	}
	mean := func(d time.Duration) float64 { return us(d) / float64(nt) }
	r.metrics["service.key_us"] = mean(key)
	r.metrics["service.hit_us"] = mean(hit)
	r.metrics["rolagdapi.json_us"] = mean(codec)
	r.metrics["daemon.http_us"] = mean(direct) - mean(hit)
	r.metrics["cluster.hop_us"] = mean(router) - mean(direct)
	// The serving layers are defined by difference, so they add up to
	// the router round trip by construction.
	layers := r.metrics["service.hit_us"] + r.metrics["daemon.http_us"] + r.metrics["cluster.hop_us"]
	r.metrics["unattributed_share"] = 1 - layers/mean(router)
	r.metrics["trace_overhead_share"] = mean(router)/(us(untraced)/float64(nu)) - 1

	// Capacity ramp, with span stats off.
	rampEnd := time.Now().Add(p.dur - 2*fixedDur)
	n := 0
	capacity, steps := findCapacity(rampFrom*p.zipfRate, rampGrowth, 64,
		func() bool { return time.Now().Before(rampEnd) },
		func(rate float64) step {
			n++
			d := rampStep(rate)
			res := openLoop(poissonZipf(p.seed+2+int64(n), rate, d, zipfKeys, zipfS), send)
			r.attempted += len(res)
			for _, o := range res {
				if o.Err != nil {
					r.fail(1, o.Err)
				}
			}
			return stepOf(rate, d, res)
		})
	r.metrics["cluster.capacity_rps"] = capacity
	r.details["ramp"] = rampDetails(append([]step{fixed}, steps...))

	ref, err := reference(jobs, true)
	if err != nil {
		return nil, err
	}
	r.fail(check.against(withoutRodata(ref)), errMismatch)
	r.details["probes"] = nt
	return r, nil
}
