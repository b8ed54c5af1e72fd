package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/faultpoint"
	"rolag/internal/workloads/angha"
)

// corpus returns n generated corpus functions with pairwise-distinct
// sources, so cache-hit counts in the tests are deterministic.
func corpus(t *testing.T, n int) []angha.Function {
	t.Helper()
	funcs := angha.Generate(4*n, 20220402)
	seen := make(map[string]bool)
	var out []angha.Function
	for _, fn := range funcs {
		if seen[fn.Src] {
			continue
		}
		seen[fn.Src] = true
		out = append(out, fn)
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("only %d distinct sources in %d generated functions", len(out), 4*n)
	return nil
}

// TestEngineMatchesSerialDriver drives ~50 corpus functions through the
// engine under -race, with identical and distinct configs, and checks
// byte-identical IR plus exact cache-hit accounting against the serial
// rolag facade.
func TestEngineMatchesSerialDriver(t *testing.T) {
	funcs := corpus(t, 50)
	e := New(Config{})
	defer e.Close(context.Background())

	configs := []rolag.Config{
		{Opt: rolag.OptNone},
		{Opt: rolag.OptRoLAG},
		{Opt: rolag.OptLLVMReroll},
	}
	var reqs []Request
	for _, fn := range funcs {
		for _, cfg := range configs {
			cfg.Name = fn.Name
			reqs = append(reqs, Request{Source: fn.Src, Config: cfg, EmitIR: true})
		}
	}

	// Cold pass: every request is distinct, so every one is a fresh
	// compile (a miss or a flight the miss leads).
	cold := e.CompileBatch(context.Background(), reqs)
	m := e.Metrics()
	if m.CacheHits+m.DedupHits != 0 {
		t.Errorf("cold pass: got %d cache hits and %d dedup hits, want 0", m.CacheHits, m.DedupHits)
	}
	if m.Compiles != int64(len(reqs)) {
		t.Errorf("cold pass: %d compiles, want %d", m.Compiles, len(reqs))
	}

	// Warm pass: everything must come from the cache.
	warm := e.CompileBatch(context.Background(), reqs)
	m = e.Metrics()
	if m.CacheHits != int64(len(reqs)) {
		t.Errorf("warm pass: %d cache hits, want %d", m.CacheHits, len(reqs))
	}
	if m.Compiles != int64(len(reqs)) {
		t.Errorf("warm pass recompiled: %d compiles, want %d", m.Compiles, len(reqs))
	}

	for i, item := range cold {
		if item.Err != nil {
			t.Fatalf("req %d: %v", i, item.Err)
		}
		if item.Resp.CacheHit {
			t.Errorf("req %d: cold response marked as cache hit", i)
		}
		w := warm[i]
		if w.Err != nil {
			t.Fatalf("warm req %d: %v", i, w.Err)
		}
		if !w.Resp.CacheHit {
			t.Errorf("req %d: warm response not marked as cache hit", i)
		}
		if w.Resp.IR != item.Resp.IR {
			t.Errorf("req %d: warm IR differs from cold IR", i)
		}

		serial, err := rolag.Build(reqs[i].Source, reqs[i].Config)
		if err != nil {
			t.Fatalf("serial req %d: %v", i, err)
		}
		if got, want := item.Resp.IR, serial.Module.String(); got != want {
			t.Errorf("req %d (%s): engine IR differs from serial driver\nengine:\n%s\nserial:\n%s",
				i, reqs[i].Config.Name, got, want)
		}
		if item.Resp.BinaryAfter != serial.BinaryAfter || item.Resp.SizeAfter != serial.SizeAfter {
			t.Errorf("req %d: sizes (%d,%d) differ from serial (%d,%d)",
				i, item.Resp.SizeAfter, item.Resp.BinaryAfter, serial.SizeAfter, serial.BinaryAfter)
		}
		if serial.Stats != nil {
			if item.Resp.Stats == nil {
				t.Fatalf("req %d: missing stats", i)
			}
			if item.Resp.Stats.LoopsRolled != serial.Stats.LoopsRolled {
				t.Errorf("req %d: rolled %d loops, serial rolled %d",
					i, item.Resp.Stats.LoopsRolled, serial.Stats.LoopsRolled)
			}
		}
	}
}

// TestEngineDedup floods the engine with one identical request and
// checks that exactly one compilation happens.
func TestEngineDedup(t *testing.T) {
	fn := corpus(t, 1)[0]
	e := New(Config{Workers: 4})
	defer e.Close(context.Background())

	const n = 32
	req := Request{Source: fn.Src, Config: rolag.Config{Opt: rolag.OptRoLAG}, EmitIR: true}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = req
	}
	out := e.CompileBatch(context.Background(), reqs)
	var ir string
	for i, item := range out {
		if item.Err != nil {
			t.Fatalf("req %d: %v", i, item.Err)
		}
		if ir == "" {
			ir = item.Resp.IR
		} else if item.Resp.IR != ir {
			t.Errorf("req %d: IR differs across identical requests", i)
		}
	}
	m := e.Metrics()
	if m.Compiles != 1 {
		t.Errorf("compiles = %d, want 1", m.Compiles)
	}
	if m.CacheHits+m.DedupHits != n-1 {
		t.Errorf("hits = %d (cache) + %d (dedup), want %d total", m.CacheHits, m.DedupHits, n-1)
	}
}

// TestCacheKey checks the canonicalization rules the cache relies on.
func TestCacheKey(t *testing.T) {
	base := Request{Source: "int f(int x) { return x; }", Config: rolag.Config{Opt: rolag.OptRoLAG}}

	named := base
	named.Config.Name = "other"
	if cacheKey(&base) != cacheKey(&named) {
		t.Error("Config.Name must not affect the cache key")
	}

	withOpts := base
	withOpts.Config.Options = rolag.DefaultOptions()
	if cacheKey(&base) != cacheKey(&withOpts) {
		t.Error("nil Options and DefaultOptions must share a key")
	}

	fast := base
	fast.Config.Options = rolag.DefaultOptions()
	fast.Config.Options.FastMath = true
	if cacheKey(&base) == cacheKey(&fast) {
		t.Error("FastMath must change the cache key")
	}

	unrolled := base
	unrolled.Config.Unroll = 8
	if cacheKey(&base) == cacheKey(&unrolled) {
		t.Error("Unroll must change the cache key")
	}

	otherSrc := base
	otherSrc.Source = "int g(int x) { return x + 1; }"
	if cacheKey(&base) == cacheKey(&otherSrc) {
		t.Error("source must change the cache key")
	}

	irIn := base
	irIn.Config.IRInput = true
	if cacheKey(&base) == cacheKey(&irIn) {
		t.Error("IRInput must change the cache key")
	}

	asm := base
	asm.Format = FormatAsm
	if cacheKey(&base) == cacheKey(&asm) {
		t.Error("Format must change the cache key")
	}
}

// TestEngineFormatAsm exercises the format=asm path: the response
// carries assembly text and a measured .text size, both survive a
// cache hit, and a format-less request for the same source does not
// see them.
func TestEngineFormatAsm(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close(context.Background())

	req := Request{
		Source: "int sum4(int *a) { return a[0] + a[1] + a[2] + a[3]; }",
		Config: rolag.Config{Opt: rolag.OptRoLAG},
		Format: FormatAsm,
	}
	resp, err := e.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Asm == "" {
		t.Error("format=asm response missing assembly")
	}
	if !strings.Contains(resp.Asm, "sum4:") {
		t.Errorf("assembly lacks the function label:\n%s", resp.Asm)
	}
	if resp.TextBytes <= 0 {
		t.Errorf("measured .text size = %d, want > 0", resp.TextBytes)
	}

	hit, err := e.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Error("identical asm request missed the cache")
	}
	if hit.Asm != resp.Asm || hit.TextBytes != resp.TextBytes {
		t.Error("cached asm result differs from the fresh one")
	}

	plain := req
	plain.Format = ""
	presp, err := e.Compile(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if presp.CacheHit {
		t.Error("format-less request hit the asm entry: formats share a key")
	}
	if presp.Asm != "" || presp.TextBytes != 0 {
		t.Errorf("format-less response carries asm: %q, %d", presp.Asm, presp.TextBytes)
	}

	bad := req
	bad.Format = "elf"
	if _, err := e.Compile(context.Background(), bad); err == nil {
		t.Error("unknown format accepted")
	}

	m := e.Metrics()
	if m.EmitAsm != 2 {
		t.Errorf("EmitAsm = %d, want 2 (two accepted asm requests)", m.EmitAsm)
	}
}

// TestEngineAsmIgnoresModuleName compiles one source as module alpha
// and then as module beta, a cache hit since the key excludes the
// name: both responses carry the same assembly, equal to a direct
// backend build under a third name.
func TestEngineAsmIgnoresModuleName(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close(context.Background())

	const src = "int sum4(int *a) { return a[0] + a[1] + a[2] + a[3]; }"
	var asm [2]string
	for i, name := range []string{"alpha", "beta"} {
		resp, err := e.Compile(context.Background(), Request{
			Source: src,
			Config: rolag.Config{Name: name, Opt: rolag.OptRoLAG},
			Format: FormatAsm,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit != (i == 1) {
			t.Fatalf("%s: cacheHit = %v", name, resp.CacheHit)
		}
		asm[i] = resp.Asm
	}
	res, err := rolag.Build(src, rolag.Config{Name: "direct", Opt: rolag.OptRoLAG})
	if err != nil {
		t.Fatal(err)
	}
	r, err := backend.Compile(res.Module, nil)
	if err != nil {
		t.Fatal(err)
	}
	if asm[0] != asm[1] || asm[0] != r.Asm() {
		t.Errorf("assembly depends on the module name:\nalpha:\n%s\nbeta:\n%s\ndirect:\n%s", asm[0], asm[1], r.Asm())
	}
}

// TestEngineImmutableCache mutates a returned result and re-requests the
// same key, checking the cached result is unaffected.
func TestEngineImmutableCache(t *testing.T) {
	fn := corpus(t, 1)[0]
	e := New(Config{Workers: 2})
	defer e.Close(context.Background())

	req := Request{Source: fn.Src, Config: rolag.Config{Opt: rolag.OptRoLAG}, EmitIR: true}
	first, err := e.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize the caller's copy.
	first.Stats.LoopsRolled = 999999

	second, err := e.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("expected a cache hit")
	}
	if second.IR != first.IR {
		t.Error("cached IR changed after caller mutation")
	}
	if second.Stats.LoopsRolled == 999999 {
		t.Error("cached stats alias the caller's copy")
	}
}

// TestEnginePanicRecovery injects a panic into one job and checks it
// becomes that job's error while the batch survives.
func TestEnginePanicRecovery(t *testing.T) {
	funcs := corpus(t, 3)
	hook := func(r *Request) {
		if r.Config.Name == "boom" {
			panic("injected failure")
		}
	}
	testCompileHook.Store(&hook)
	defer testCompileHook.Store(nil)

	e := New(Config{Workers: 2})
	defer e.Close(context.Background())

	reqs := []Request{
		{Source: funcs[0].Src, Config: rolag.Config{Name: "ok1", Opt: rolag.OptRoLAG}},
		{Source: funcs[1].Src, Config: rolag.Config{Name: "boom", Opt: rolag.OptRoLAG}},
		{Source: funcs[2].Src, Config: rolag.Config{Name: "ok2", Opt: rolag.OptRoLAG}},
	}
	out := e.CompileBatch(context.Background(), reqs)
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v, %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "panicked") {
		t.Fatalf("panicking job: got err %v, want a panic error", out[1].Err)
	}
	if m := e.Metrics(); m.Panics != 1 {
		t.Errorf("panics = %d, want 1", m.Panics)
	}
}

// TestEngineDeadline checks that an expired per-job context fails the
// job promptly.
func TestEngineDeadline(t *testing.T) {
	fn := corpus(t, 1)[0]
	hook := func(*Request) { time.Sleep(30 * time.Millisecond) }
	testCompileHook.Store(&hook)
	defer testCompileHook.Store(nil)

	e := New(Config{Workers: 1})
	defer e.Close(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := e.Compile(ctx, Request{Source: fn.Src, Config: rolag.Config{Opt: rolag.OptRoLAG}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestEngineIRDeadlineBetweenFunctions: a textual-IR job whose deadline
// expires while its first function is being canonicalized stops before
// the next function, as a mini-C job does, instead of canonicalizing
// the whole module first.
func TestEngineIRDeadlineBetweenFunctions(t *testing.T) {
	src := "int f0(int x) { return x + 1; }\nint f1(int x) { return x + 2; }\n" +
		"int f2(int x) { return x + 3; }\nint f3(int x) { return x + 4; }\n"
	res, err := rolag.Build(src, rolag.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()
	faultpoint.Reset()
	// Every mem2reg visit stalls for faultpoint.DefaultStall, far past
	// the job's deadline; the pass budget is large enough that the stall
	// is not also a timeout.
	faultpoint.Arm("pass:mem2reg", faultpoint.KindStall, 0)

	e := New(Config{Workers: 1, CacheEntries: -1, PassBudget: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = e.Compile(ctx, Request{Source: res.Module.String(),
		Config: rolag.Config{IRInput: true, Opt: rolag.OptRoLAG}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	// Close waits for the worker to leave the abandoned job.
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := faultpoint.FiredAt("pass:mem2reg"); n != 1 {
		t.Fatalf("mem2reg ran on %d functions after the deadline passed, want 1", n)
	}
}

// TestEngineCloseDrains checks graceful shutdown: in-flight jobs finish,
// later submissions are rejected, Close is idempotent.
func TestEngineCloseDrains(t *testing.T) {
	funcs := corpus(t, 8)
	hook := func(*Request) { time.Sleep(10 * time.Millisecond) }
	testCompileHook.Store(&hook)
	defer testCompileHook.Store(nil)

	e := New(Config{Workers: 2})
	var wg sync.WaitGroup
	errs := make([]error, len(funcs))
	for i, fn := range funcs {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			_, errs[i] = e.Compile(context.Background(), Request{Source: src, Config: rolag.Config{Opt: rolag.OptNone}})
		}(i, fn.Src)
	}
	// Wait until every submission has been accepted, then drain.
	waitInFlight(t, e, len(funcs))
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d failed during graceful drain: %v", i, err)
		}
	}
	if _, err := e.Compile(context.Background(), Request{Source: funcs[0].Src}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compile after Close: got %v, want ErrClosed", err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestEngineCloseTimeout checks that a drain deadline abandons queued
// jobs with ErrDraining instead of hanging.
func TestEngineCloseTimeout(t *testing.T) {
	funcs := corpus(t, 6)
	block := make(chan struct{})
	hook := func(*Request) { <-block }
	testCompileHook.Store(&hook)
	defer func() {
		close(block)
		testCompileHook.Store(nil)
	}()

	e := New(Config{Workers: 1})
	var wg sync.WaitGroup
	errCh := make(chan error, len(funcs))
	for _, fn := range funcs {
		wg.Add(1)
		go func(src string) {
			defer wg.Done()
			_, err := e.Compile(context.Background(), Request{Source: src, Config: rolag.Config{Opt: rolag.OptNone}})
			errCh <- err
		}(fn.Src)
	}
	waitInFlight(t, e, len(funcs))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := e.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close: got %v, want context.DeadlineExceeded", err)
	}
	wg.Wait()
	close(errCh)
	var drained int
	for err := range errCh {
		if errors.Is(err, ErrDraining) {
			drained++
		} else if err != nil {
			t.Errorf("unexpected job error: %v", err)
		}
	}
	if drained == 0 {
		t.Error("no queued job was abandoned with ErrDraining")
	}
}

// waitInFlight blocks until the engine reports n accepted jobs.
func waitInFlight(t *testing.T, e *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics().InFlight < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs in flight", e.Metrics().InFlight, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheEviction checks the LRU bound holds.
func TestCacheEviction(t *testing.T) {
	funcs := corpus(t, 10)
	e := New(Config{Workers: 2, CacheEntries: 4})
	defer e.Close(context.Background())
	for _, fn := range funcs {
		if _, err := e.Compile(context.Background(), Request{Source: fn.Src, Config: rolag.Config{Opt: rolag.OptNone}}); err != nil {
			t.Fatal(err)
		}
	}
	if m := e.Metrics(); m.CacheEntries != 4 {
		t.Errorf("cache entries = %d, want 4", m.CacheEntries)
	}
}
