// Package service is the concurrent compilation engine behind rolagd
// and the parallel experiment drivers. It wraps the serial rolag facade
// with a bounded worker pool, a content-addressed LRU result cache
// (SHA-256 of source + canonical config), single-flight deduplication
// of identical concurrent requests, per-job context deadlines, panic
// recovery, and lock-free metrics.
//
// Cached results are immutable: the engine owns every module it stores
// and hands callers deep clones (Request.NeedModule) or printed IR
// (Request.EmitIR), never the cached pointer.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/faultpoint"
	"rolag/internal/ir"
	"rolag/internal/irparse"
	"rolag/internal/obs"
	rl "rolag/internal/rolag"
)

// Engine lifecycle errors.
var (
	// ErrClosed is returned by Compile after Close has been called.
	ErrClosed = errors.New("service: engine is closed")
	// ErrDraining is returned for jobs abandoned because Close gave up
	// waiting for the drain to finish.
	ErrDraining = errors.New("service: engine shut down before the job ran")
	// ErrOverloaded is returned when admission control sheds a request
	// because MaxInFlight requests are already being served. The caller
	// should back off and retry (rolagd maps it to HTTP 429).
	ErrOverloaded = errors.New("service: engine overloaded, request shed")
)

// Config sizes the engine.
type Config struct {
	// Workers is the worker-pool size (default runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth is the job-queue buffer (default 4×Workers).
	QueueDepth int
	// CacheEntries bounds the result cache (default 4096; negative
	// disables caching and single-flight deduplication entirely).
	CacheEntries int
	// MaxInFlight bounds admitted Compile calls; beyond it requests are
	// shed with ErrOverloaded instead of queueing unboundedly. Default
	// 4×(Workers+QueueDepth), floored at 32 so it always exceeds
	// CompileBatch's submitter count; negative disables shedding.
	MaxInFlight int
	// DisableFailSoft turns off the fail-soft sandbox and the per-pass
	// circuit breakers, restoring fail-hard semantics: a broken pass
	// fails the whole job (its panic is still recovered per job).
	DisableFailSoft bool
	// PassBudget is the fail-soft per-pass wall-clock budget
	// (0 = passes.DefaultPassBudget).
	PassBudget time.Duration
	// BreakerThreshold is how many consecutive failures of one pass open
	// its circuit breaker (0 = DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses a pass before
	// admitting a half-open probe (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// PeerFetch, when set, is consulted on every local cache miss
	// before compiling: the cluster layer uses it to ask the key's home
	// shard for the entry (fetch-on-miss peer caching). It returns the
	// fetched entry (nil = the peer doesn't have it or the fetch
	// failed) and whether a peer was actually asked — the hook returns
	// (nil, false) immediately for keys this shard owns itself, and
	// only attempted lookups count toward the peer hit/miss metrics.
	// The hook runs inside the key's single-flight slot, so concurrent
	// requests for one key trigger at most one peer fetch.
	PeerFetch func(ctx context.Context, key string) (ce *CacheEntry, attempted bool)
}

// Request is one compilation job: one translation unit (typically a
// single corpus function group) plus the pipeline configuration.
type Request struct {
	// Source is mini-C, or textual IR when Config.IRInput is set.
	Source string
	// Config selects the input language and the pipeline. Name does not
	// affect the compiled output and is excluded from the cache key.
	Config rolag.Config
	// EmitIR asks for the final IR text in Response.IR.
	EmitIR bool
	// NeedModule asks for a caller-owned deep clone of the final module
	// in Response.Module.
	NeedModule bool
	// Format selects an additional lowered output: "" (none) or
	// FormatAsm, which lowers the optimized module through
	// internal/backend and returns the x86-64 assembly plus the
	// measured .text size in Response.Asm/Response.TextBytes. Format is
	// part of the cache key — an asm-bearing entry only answers
	// requests that asked for asm.
	Format string
}

// FormatAsm asks for x86-64 assembly and measured .text bytes.
const FormatAsm = "asm"

// CacheEntry is one compiled result: what the cache stores, what
// snapshots and rolagd's GET /v1/cache/{key} peer endpoint serialize,
// and what a Response carries. It is pointer-free apart from Stats and
// Remarks, which every holder treats as read-only.
//
// Degraded results never become CacheEntries on the wire: the engine
// refuses to cache them (a transient pass failure must not poison a
// content-addressed key), and ExportCached and snapshots only read the
// cache, so the peer tier inherits the same guarantee. That is why the
// degradation report lives on entry and Response, not here.
type CacheEntry struct {
	// IR is the final IR text.
	IR string `json:"ir"`
	// Sizes under the profitability and binary cost models, as in
	// rolag.Result.
	SizeBefore   int `json:"sizeBefore"`
	SizeAfter    int `json:"sizeAfter"`
	BinaryBefore int `json:"binaryBefore"`
	BinaryAfter  int `json:"binaryAfter"`
	// Rerolled counts loops rerolled by the LLVM baseline.
	Rerolled int `json:"rerolled,omitempty"`
	// Stats holds RoLAG statistics (nil unless Opt == OptRoLAG).
	Stats *rolag.Stats `json:"stats,omitempty"`
	// Remarks is the deterministic remark stream (only when
	// Config.Remarks, which is part of the cache key).
	Remarks []rolag.Remark `json:"remarks,omitempty"`
	// Asm is the x86-64 assembly of the optimized module and TextBytes
	// the measured size of its encoded .text section (only for
	// Request.Format == FormatAsm, which is part of the cache key).
	// Unlike BinaryAfter, which is the cost model's estimate, TextBytes
	// is counted from actual instruction encodings.
	Asm       string `json:"asm,omitempty"`
	TextBytes int64  `json:"textBytes,omitempty"`
}

// Response is the outcome of one compilation job. The embedded
// CacheEntry's IR is set only when Request.EmitIR, and its Stats is the
// caller's own copy; Remarks is shared read-only with other hits of the
// same cache entry.
type Response struct {
	CacheEntry
	// Module is a private clone of the final module (only when
	// Request.NeedModule).
	Module *ir.Module
	// CacheHit reports that the result came from the cache or from an
	// identical in-flight compilation rather than a fresh compile.
	CacheHit bool
	// Degraded is the fail-soft degradation report: nil for a clean
	// compile, otherwise the pass executions that were rolled back and
	// skipped. Degraded results are correct but not cached. The report
	// is shared (read-only) with single-flight followers of the same
	// compilation; callers must not mutate it.
	Degraded *rolag.Degraded
}

// entry is an immutable cached result. The result module itself is
// NOT retained: cached modules are pointer-dense graphs the GC would
// re-scan on every cycle for the lifetime of the cache, which on a big
// corpus costs more than the compiles the cache saves. The printed IR
// (one flat, pointer-free string) carries the same information; the
// rare NeedModule hit reparses it, which the printer/parser round-trip
// guarantees is equivalent to cloning.
type entry struct {
	CacheEntry
	// degraded is non-nil for fail-soft-degraded results. Such entries
	// are handed to single-flight followers but never stored in the
	// cache: a transient pass failure must not poison the key.
	degraded *rolag.Degraded
	// fromSnapshot marks entries restored by LoadSnapshot so the first
	// post-restart hit on each can be counted as snapshot warmth (the
	// signal the chaos harness gates on). Peer-imported entries do not
	// set it: they are cluster warmth, not restart warmth.
	fromSnapshot bool
}

type job struct {
	ctx  context.Context
	req  *Request
	done chan jobResult
}

type jobResult struct {
	entry *entry
	err   error
}

// Engine is a concurrency-safe compilation service over the rolag
// facade. Create with New, release with Close.
type Engine struct {
	cfg      Config
	cache    *lruCache   // nil when caching is disabled
	breakers *breakerSet // nil when fail-soft is disabled
	flights  flightGroup
	metrics  metrics

	jobs chan *job
	quit chan struct{} // closed by Close to stop the workers

	admitted atomic.Int64 // admission-control occupancy

	workerWG sync.WaitGroup
	inflight sync.WaitGroup // accepted Compile calls

	mu     sync.RWMutex // guards closed
	closed bool
}

// New starts an engine with cfg's worker pool and cache.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 4 * (cfg.Workers + cfg.QueueDepth)
		if cfg.MaxInFlight < 32 {
			cfg.MaxInFlight = 32
		}
	}
	e := &Engine{
		cfg:  cfg,
		jobs: make(chan *job, cfg.QueueDepth),
		quit: make(chan struct{}),
	}
	if cfg.CacheEntries > 0 {
		e.cache = newLRUCache(cfg.CacheEntries)
	}
	if !cfg.DisableFailSoft {
		e.breakers = newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	e.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Metrics returns a point-in-time snapshot of the engine counters.
func (e *Engine) Metrics() MetricsSnapshot {
	s := e.metrics.snapshot()
	if e.cache != nil {
		s.CacheEntries = e.cache.len()
	}
	s.Workers = e.cfg.Workers
	if e.breakers != nil {
		s.BreakerOpens = e.breakers.opens.Load()
		s.Breakers = e.breakers.infos()
	}
	return s
}

// Compile runs one job and blocks until it completes, fails, or ctx
// expires. Identical concurrent requests (same source and canonical
// config) compile once and share the result. When MaxInFlight requests
// are already admitted the call is shed immediately with ErrOverloaded
// instead of queueing.
func (e *Engine) Compile(ctx context.Context, req Request) (*Response, error) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrClosed
	}
	e.inflight.Add(1)
	e.mu.RUnlock()
	defer e.inflight.Done()

	if max := int64(e.cfg.MaxInFlight); max > 0 {
		if e.admitted.Add(1) > max {
			e.admitted.Add(-1)
			e.metrics.shed.Add(1)
			return nil, ErrOverloaded
		}
		defer e.admitted.Add(-1)
	}

	e.metrics.requests.Add(1)
	e.metrics.inFlight.Add(1)
	defer e.metrics.inFlight.Add(-1)

	if req.Source == "" {
		e.metrics.errors.Add(1)
		return nil, errors.New("service: empty source")
	}
	if req.Format != "" && req.Format != FormatAsm {
		e.metrics.errors.Add(1)
		return nil, fmt.Errorf("service: unknown format %q (want %q or empty)", req.Format, FormatAsm)
	}
	if req.EmitIR {
		e.metrics.emitIR.Add(1)
	}
	if req.Format == FormatAsm {
		e.metrics.emitAsm.Add(1)
	}

	if e.cache == nil {
		en, err := e.dispatch(ctx, &req)
		if err != nil {
			e.metrics.errors.Add(1)
			return nil, err
		}
		return respFromEntry(en, &req, false)
	}

	key := cacheKey(&req)
	if en, ok := e.cache.get(key); ok {
		// An injected cache:get fault turns the hit into a miss; the
		// compile below still produces a correct answer.
		if faultpoint.Fire(faultpoint.CacheGet, faultpoint.KindError) != faultpoint.KindError {
			e.metrics.cacheHits.Add(1)
			if en.fromSnapshot {
				e.metrics.snapshotWarmHits.Add(1)
			}
			return respFromEntry(en, &req, true)
		}
	}

	var peerHit bool
	en, err, leader := e.flights.do(ctx, key, func() (*entry, error) {
		e.metrics.cacheMisses.Add(1)
		if e.cfg.PeerFetch != nil {
			if ce, attempted := e.cfg.PeerFetch(ctx, key); ce != nil {
				e.metrics.peerHits.Add(1)
				peerHit = true
				pe := &entry{CacheEntry: *ce}
				e.cache.put(key, pe)
				return pe, nil
			} else if attempted {
				e.metrics.peerMisses.Add(1)
			}
		}
		en, err := e.dispatch(ctx, &req)
		if err != nil {
			return nil, err
		}
		// Degraded results are served but never cached: a transient
		// pass failure must not poison this key until eviction. An
		// injected cache:put fault likewise drops the store.
		if en.degraded == nil &&
			faultpoint.Fire(faultpoint.CachePut, faultpoint.KindError) != faultpoint.KindError {
			e.cache.put(key, en)
		}
		return en, nil
	})
	if err != nil {
		e.metrics.errors.Add(1)
		return nil, err
	}
	if !leader {
		e.metrics.dedupHits.Add(1)
	}
	// A peer-cache hit is a cache hit from the caller's point of view:
	// the result came from the cluster's logical cache, not a compile.
	// peerHit is per-call and only written when this caller led the
	// flight (do runs fn synchronously on the leader's goroutine).
	return respFromEntry(en, &req, !leader || peerHit)
}

// BatchItem pairs one CompileBatch response with its error.
type BatchItem struct {
	Resp *Response
	Err  error
}

// CompileBatch fans reqs out over the worker pool and returns the
// results in request order. Per-item failures land in the item's Err;
// the batch itself never fails part-way. Submission is bounded to a
// small multiple of the worker count: a goroutine per request would
// keep thousands of stacks alive while the pool can only drain
// Workers jobs at a time, which costs real scheduler and GC time on
// large corpora.
func (e *Engine) CompileBatch(ctx context.Context, reqs []Request) []BatchItem {
	out := make([]BatchItem, len(reqs))
	submitters := 4 * e.cfg.Workers
	if submitters < 16 {
		submitters = 16
	}
	if submitters > len(reqs) {
		submitters = len(reqs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i].Resp, out[i].Err = e.Compile(ctx, reqs[i])
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// dispatch hands the job to the worker pool and waits for the result.
func (e *Engine) dispatch(ctx context.Context, req *Request) (*entry, error) {
	j := &job{ctx: ctx, req: req, done: make(chan jobResult, 1)}
	select {
	case e.jobs <- j:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.quit:
		return nil, ErrDraining
	}
	select {
	case res := <-j.done:
		return res.entry, res.err
	case <-ctx.Done():
		// The worker will notice the expired context before compiling,
		// or finish a compile nobody is waiting for; done is buffered
		// so it never blocks.
		return nil, ctx.Err()
	case <-e.quit:
		return nil, ErrDraining
	}
}

func (e *Engine) worker() {
	defer e.workerWG.Done()
	for {
		select {
		case j := <-e.jobs:
			j.done <- e.runJob(j)
		case <-e.quit:
			return
		}
	}
}

// runJob executes one compilation with panic recovery: a crashing pass
// becomes that job's error instead of taking down the process.
func (e *Engine) runJob(j *job) (res jobResult) {
	if err := j.ctx.Err(); err != nil {
		return jobResult{err: err}
	}
	defer func() {
		if r := recover(); r != nil {
			e.metrics.panics.Add(1)
			res = jobResult{err: fmt.Errorf("service: compile panicked: %v", r)}
		}
	}()
	if hook := testCompileHook.Load(); hook != nil {
		(*hook)(j.req)
	}
	switch faultpoint.Fire(faultpoint.EngineRun,
		faultpoint.KindPanic, faultpoint.KindStall, faultpoint.KindError) {
	case faultpoint.KindPanic:
		panic("faultpoint: injected panic at engine:run")
	case faultpoint.KindError:
		return jobResult{err: errors.New("service: injected engine fault")}
	}
	tr := obs.TraceFrom(j.ctx)
	span := obs.Now()
	start := time.Now()
	cfg := j.req.Config
	defer func() { obs.EndSpan(tr, "engine:compile", span, cfg.Name) }()
	if !e.cfg.DisableFailSoft {
		cfg.FailSoft = true
		cfg.PassBudget = e.cfg.PassBudget
		cfg.Guard = e.breakers
	}
	out, err := rolag.BuildContext(j.ctx, j.req.Source, cfg)
	if err != nil {
		return jobResult{err: err}
	}
	e.metrics.observeCompile(time.Since(start))
	e.metrics.compiles.Add(1)
	if out.Stats != nil {
		e.metrics.loopsRolled.Add(int64(out.Stats.LoopsRolled))
	}
	if out.Degraded != nil {
		e.metrics.degraded.Add(1)
		for _, sk := range out.Degraded.Skips {
			e.metrics.skipPass(sk.Pass)
		}
	}
	e.metrics.countRemarks(out.Remarks)
	en := &entry{degraded: out.Degraded, CacheEntry: CacheEntry{
		IR: out.Module.String(), Rerolled: out.Rerolled, Stats: out.Stats, Remarks: out.Remarks,
		SizeBefore: out.SizeBefore, SizeAfter: out.SizeAfter,
		BinaryBefore: out.BinaryBefore, BinaryAfter: out.BinaryAfter,
	}}
	if j.req.Format == FormatAsm {
		// Lower through the assembly backend under the request trace,
		// so lower/encode spans show up in end-to-end traces next to
		// the optimizer phases.
		r, berr := backend.Compile(out.Module, &obs.Recorder{Trace: tr})
		if berr != nil {
			return jobResult{err: fmt.Errorf("service: lower to asm: %w", berr)}
		}
		en.Asm, en.TextBytes = r.Asm(), r.Code.Text
	}
	return jobResult{entry: en}
}

// testCompileHook, when set by a test, runs inside the worker before
// each compilation (used to inject panics and stalls). Atomic because a
// worker abandoned by a timed-out Close can outlive the test that
// installed the hook.
var testCompileHook atomic.Pointer[func(*Request)]

// Close drains the engine: new Compile calls fail with ErrClosed,
// accepted jobs run to completion, then the workers stop. If ctx
// expires first, queued-but-unstarted jobs fail with ErrDraining and
// Close returns ctx.Err() without waiting for compilations already on a
// worker (they finish and are discarded).
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		close(e.quit)
		e.workerWG.Wait()
		return nil
	case <-ctx.Done():
		close(e.quit)
		return ctx.Err()
	}
}

// respFromEntry materializes a caller-owned Response from an immutable
// cache entry.
func respFromEntry(en *entry, req *Request, hit bool) (*Response, error) {
	resp := &Response{CacheEntry: en.CacheEntry, CacheHit: hit, Degraded: en.degraded}
	resp.Stats = copyStats(en.Stats)
	if !req.EmitIR {
		resp.IR = ""
	}
	if req.NeedModule {
		m, err := irparse.ParseModule(en.IR)
		if err != nil {
			return nil, fmt.Errorf("service: reparse cached result: %w", err)
		}
		resp.Module = m
	}
	return resp, nil
}

func copyStats(s *rolag.Stats) *rolag.Stats {
	if s == nil {
		return nil
	}
	ns := *s
	ns.NodeCounts = make(map[rl.NodeKind]int, len(s.NodeCounts))
	for k, v := range s.NodeCounts {
		ns.NodeCounts[k] = v
	}
	return &ns
}
