package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"rolag"
	"rolag/internal/analysis"
	"rolag/internal/backend"
	"rolag/internal/cc"
	"rolag/internal/costmodel"
	"rolag/internal/ir"
	"rolag/internal/obs"
	"rolag/internal/passes"
	rl "rolag/internal/rolag"
	"rolag/internal/rolagdapi"
	"rolag/internal/unroll"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// job is one unit of compile work: a mini-C translation unit and the
// serial, fail-hard configuration it is compiled with.
type job struct {
	name string
	src  string
	cfg  rolag.Config
}

// output is what one compile produces that the benchmark checks.
type output struct {
	IR     string // empty on paths that do not print IR
	Asm    string
	Text   int64
	Rodata int64
}

// errDegraded marks a fail-soft compile that rolled back a pass: its
// output is correct but is not the output the benchmark expects.
var errDegraded = errors.New("compile degraded")

// anghaJobs returns n AnghaBench-style functions from seed, each with
// the configuration rolagd derives from a format:"asm" compile request.
func anghaJobs(n int, seed int64) ([]job, []rolagdapi.CompileRequest, error) {
	fns := angha.Generate(n, seed)
	jobs := make([]job, n)
	reqs := make([]rolagdapi.CompileRequest, n)
	for i, fn := range fns {
		reqs[i] = rolagdapi.CompileRequest{Source: fn.Src, Format: "asm"}
		sreq, err := reqs[i].ToService()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", fn.Name, err)
		}
		jobs[i] = job{name: fn.Name, src: fn.Src, cfg: sreq.Config}
	}
	return jobs, reqs, nil
}

// tsvcJobs returns the TSVC kernels under the paper's §V.C methodology
// (unroll by 8, RoLAG, flatten), in an order shuffled by seed.
func tsvcJobs(seed int64) []job {
	ks := tsvc.Kernels()
	jobs := make([]job, len(ks))
	for i, k := range ks {
		jobs[i] = job{name: k.Name, src: k.Src, cfg: rolag.Config{
			Name: k.Name, Unroll: 8, Opt: rolag.OptRoLAG, Flatten: true,
		}}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// build runs one job through rolag.Build and the backend: fail-soft
// with the IR printed, as a rolagd worker compiles a format:"asm"
// request, or fail-hard without IR, as `rolagc -emit asm` does. The
// fail-hard form is also the serial reference every output is checked
// against.
func build(j job, failSoft, printIR bool) (output, error) {
	cfg := j.cfg
	cfg.FailSoft = failSoft
	res, err := rolag.Build(j.src, cfg)
	if err != nil {
		return output{}, err
	}
	if res.Degraded != nil {
		return output{}, fmt.Errorf("%w: %s", errDegraded, res.Degraded)
	}
	r, err := backend.Compile(res.Module, nil)
	if err != nil {
		return output{}, err
	}
	out := output{Asm: r.Asm(), Text: r.Code.Text, Rodata: r.Code.Rodata}
	if printIR {
		out.IR = res.Module.String()
	}
	return out, nil
}

// reference compiles every job serially and fail-hard.
func reference(jobs []job, printIR bool) ([]output, error) {
	out := make([]output, len(jobs))
	for i, j := range jobs {
		o, err := build(j, false, printIR)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", j.name, err)
		}
		out[i] = o
	}
	return out, nil
}

// ledger accumulates the wall time and counts of each layer over a
// traced replay. Keys are metric names without their unit suffix.
type ledger struct {
	t map[string]time.Duration
	n map[string]int64
}

func newLedger() *ledger {
	return &ledger{t: make(map[string]time.Duration), n: make(map[string]int64)}
}

func (l *ledger) since(layer string, t0 time.Time) { l.t[layer] += time.Since(t0) }

// total is the summed time of every layer.
func (l *ledger) total() time.Duration {
	var s time.Duration
	for _, d := range l.t {
		s += d
	}
	return s
}

// replay compiles j the way build does, calling each stage of the
// pipeline from outside through its package's public functions and
// charging every call to its layer. The sequence of calls is the one
// rolag.Build makes for a serial configuration, so the output is
// byte-identical to build's.
func (l *ledger) replay(j job, failSoft, printIR bool) (output, error) {
	cfg := j.cfg
	if cfg.Opt != rolag.OptRoLAG || cfg.Parallelism > 1 || cfg.SkipCleanup {
		return output{}, fmt.Errorf("replay covers serial RoLAG configurations only")
	}
	name := cfg.Name
	if name == "" {
		name = "module"
	}
	t := time.Now()
	file, err := cc.Parse(j.src)
	l.since("cc.parse", t)
	if err != nil {
		return output{}, err
	}
	t = time.Now()
	m, err := cc.Lower(file, name)
	l.since("cc.lower", t)
	if err != nil {
		return output{}, err
	}
	var sb *passes.Sandbox
	if failSoft {
		sb = &passes.Sandbox{}
		if err := l.verify(m); err != nil {
			return output{}, err
		}
		l.standard(m, sb)
	} else {
		l.standard(m, nil)
		if err := l.verify(m); err != nil {
			return output{}, err
		}
	}
	if cfg.Unroll >= 2 {
		for _, f := range m.Funcs {
			if f.IsDecl() {
				continue
			}
			k := cfg.Unroll
			l.stage(sb, "unroll.unroll", "unroll", f, func(f *ir.Func) bool { return unroll.UnrollAll(f, k) > 0 })
		}
		l.standard(m, sb)
		if sb == nil {
			if err := l.verify(m); err != nil {
				return output{}, err
			}
		}
	}
	t = time.Now()
	profit, binary := costmodel.Default(), costmodel.Binary()
	profit.Module(m)
	binary.Module(m)
	l.since("costmodel.estimate", t)

	opts := cfg.Options
	if opts == nil {
		opts = rl.DefaultOptions()
	}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		var st *rl.Stats
		roll := func(f *ir.Func) bool {
			st = rl.RollFuncInto(f, opts, nil, m, nil)
			return st.LoopsRolled > 0
		}
		if l.inPlace(sb, m, f, roll) && st != nil {
			l.n["rolag.loops_rolled"] += int64(st.LoopsRolled)
			l.n["rolag.align_attempts"] += int64(st.GraphsBuilt)
		}
	}
	if cfg.Flatten {
		for _, f := range m.Funcs {
			if !f.IsDecl() {
				l.stage(sb, "passes.flatten", "flatten", f, passes.Flatten)
			}
		}
	}
	l.standard(m, sb)
	if err := l.verify(m); err != nil {
		return output{}, err
	}
	t = time.Now()
	profit.Module(m)
	binary.Module(m)
	l.since("costmodel.estimate", t)
	if sb != nil && sb.Report() != nil {
		return output{}, fmt.Errorf("%w: %s", errDegraded, sb.Report())
	}

	t = time.Now()
	mm, err := backend.Lower(m, nil)
	l.since("backend.lower", t)
	if err != nil {
		return output{}, err
	}
	t = time.Now()
	code, err := backend.Encode(mm, nil)
	l.since("backend.encode", t)
	if err != nil {
		return output{}, err
	}
	t = time.Now()
	out := output{Asm: (&backend.Result{Mach: mm, Code: code}).Asm(), Text: code.Text, Rodata: code.Rodata}
	l.since("backend.print", t)
	if printIR {
		t = time.Now()
		out.IR = m.String()
		l.since("ir.print", t)
	}
	l.n["backend.text_bytes"] += code.Text
	l.n["backend.rodata_bytes"] += code.Rodata
	return out, nil
}

func (l *ledger) verify(m *ir.Module) error {
	t := time.Now()
	err := m.Verify()
	l.since("ir.verify", t)
	return err
}

// standard runs the canonicalization pipeline over m pass by pass, as
// passes.Pipeline.Run does (one analysis cache, invalidated on change)
// or, with a sandbox, as Pipeline.RunSandboxed does.
func (l *ledger) standard(m *ir.Module, sb *passes.Sandbox) {
	p := passes.Standard()
	var am *analysis.Manager
	if sb == nil {
		am = analysis.NewManager()
	}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		for _, ps := range p.Passes {
			if sb != nil {
				l.stage(sb, "passes."+ps.Name, ps.Name, f, ps.Run)
				continue
			}
			t := time.Now()
			var changed bool
			if ps.RunInfo != nil {
				changed = ps.RunInfo(f, am.Info(f))
			} else {
				changed = ps.Run(f)
			}
			if changed {
				am.Invalidate(f)
			}
			l.since("passes."+ps.Name, t)
		}
	}
}

// stage runs one function-local pass: directly when sb is nil, else on
// a shadow copy under the sandbox the way the fail-soft pipeline does.
// The pass body is charged to layer and the rest of the sandboxed
// execution to passes.sandbox_overhead.
func (l *ledger) stage(sb *passes.Sandbox, layer, pass string, f *ir.Func, run func(*ir.Func) bool) {
	if sb == nil {
		t := time.Now()
		run(f)
		l.since(layer, t)
		return
	}
	var body atomic.Int64 // written on the sandbox's helper goroutine
	t := time.Now()
	sb.RunShadow(pass, f, func(sf *ir.Func) bool {
		t0 := time.Now()
		changed := run(sf)
		body.Store(int64(time.Since(t0)))
		return changed
	})
	l.sandboxed(layer, time.Since(t), time.Duration(body.Load()))
}

// inPlace runs RoLAG on f: directly when sb is nil, else in place
// behind the sandbox's snapshot as the fail-soft pipeline does. It
// reports whether the execution was committed.
func (l *ledger) inPlace(sb *passes.Sandbox, m *ir.Module, f *ir.Func, run func(*ir.Func) bool) bool {
	if sb == nil {
		t := time.Now()
		run(f)
		l.since("rolag.roll", t)
		return true
	}
	var body time.Duration
	t := time.Now()
	_, ok := sb.RunInPlaceIn("rolag", f, m, func(f *ir.Func) bool {
		t0 := time.Now()
		changed := run(f)
		body = time.Since(t0)
		return changed
	})
	l.sandboxed("rolag.roll", time.Since(t), body)
	return ok
}

func (l *ledger) sandboxed(layer string, total, body time.Duration) {
	l.t[layer] += body
	l.t["passes.sandbox_overhead"] += total - body
	l.n["passes.sandbox_runs"]++
}

// rolagPhases are the span classes internal/rolag registers for its
// phases; the traced run reads them from obs.SpanStats.
var rolagPhases = []string{"seed", "align", "schedule", "codegen"}

// phaseNanos snapshots the accumulated nanoseconds of the RoLAG phase
// span classes.
func phaseNanos() map[string]uint64 {
	out := make(map[string]uint64, len(rolagPhases))
	for _, st := range obs.SpanStats() {
		for _, p := range rolagPhases {
			if st.Name == p {
				out[p] = st.Nanos
			}
		}
	}
	return out
}
