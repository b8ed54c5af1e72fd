// Command benchmark is the repository's benchmark: one command that
// runs a named workload against today's code, checks every output
// against a serial fail-hard reference, and prints its metrics as one
// JSON line. With --trace 1 it instead runs the workload's traced
// replay and prints the per-layer ledger. See README.md.
//
// Usage:
//
//	benchmark --workload angha-cold|zipf-warm|tsvc-unroll8 --seed N
//	          --seconds S --trace 0|1 [--zipf-rate R]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a run without tracing prints, on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"code_bytes", "bytes"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics a traced run prints, on every workload. A
// layer the workload's path does not cross reads zero. Times are per
// compiled function (compile layers) or per request (serving layers);
// counts are per pass over the workload's corpus.
var perLayer = []metricDef{
	{"cc.parse_ms", "ms"},
	{"cc.lower_ms", "ms"},
	{"passes.mem2reg_ms", "ms"},
	{"passes.constfold_ms", "ms"},
	{"passes.simplify_ms", "ms"},
	{"passes.ifconvert_ms", "ms"},
	{"passes.cse_ms", "ms"},
	{"passes.licm_ms", "ms"},
	{"passes.dce_ms", "ms"},
	{"passes.flatten_ms", "ms"},
	{"passes.sandbox_overhead_ms", "ms"},
	{"passes.sandbox_runs", "count"},
	{"unroll.unroll_ms", "ms"},
	{"costmodel.estimate_ms", "ms"},
	{"ir.verify_ms", "ms"},
	{"ir.print_ms", "ms"},
	{"rolag.roll_ms", "ms"},
	{"rolag.seed_ms", "ms"},
	{"rolag.align_ms", "ms"},
	{"rolag.schedule_ms", "ms"},
	{"rolag.codegen_ms", "ms"},
	{"rolag.loops_rolled", "count"},
	{"rolag.align_attempts", "count"},
	{"rolag.roll_rate", "ratio"},
	{"backend.lower_ms", "ms"},
	{"backend.encode_ms", "ms"},
	{"backend.print_ms", "ms"},
	{"backend.text_bytes", "bytes"},
	{"backend.rodata_bytes", "bytes"},
	{"service.key_us", "us"},
	{"service.hit_us", "us"},
	{"service.hit_rate", "ratio"},
	{"service.shed", "count"},
	{"rolagdapi.json_us", "us"},
	{"daemon.http_us", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.hedges", "count"},
	{"cluster.capacity_rps", "1/s"},
	{"loadgen.late_p99_ms", "ms"},
	{"go.gc_pause_ms", "ms/s"},
	{"unattributed_share", "ratio"},
	{"trace_overhead_share", "ratio"},
}

var workloads = map[string]func(params) (*run, error){
	"angha-cold":   anghaCold,
	"zipf-warm":    zipfWarm,
	"tsvc-unroll8": tsvcUnroll8,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance identifies what was measured and where.
type provenance struct {
	Rev        string `json:"rev"`
	Dirty      string `json:"dirty"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Time       string `json:"time"`
}

func main() {
	workload := flag.String("workload", "", "angha-cold, zipf-warm or tsvc-unroll8")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs and traffic")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay instead")
	zipfRate := flag.Float64("zipf-rate", 0, "zipf-warm's fixed open-loop rate, requests/s")
	rev := flag.String("rev", "unknown", "source revision, for the provenance line")
	dirty := flag.String("dirty", "unknown", "whether the source tree had uncommitted changes")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload angha-cold|zipf-warm|tsvc-unroll8 --seed N --seconds S --trace 0|1 [--zipf-rate R]")
		os.Exit(2)
	}
	p := params{
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		conns:    runtime.NumCPU(),
		zipfRate: *zipfRate,
	}
	prov := provenance{
		Rev: *rev, Dirty: *dirty, Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: p.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	r, err := fn(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	for name := range r.metrics {
		if !defined(defs, name) {
			fmt.Fprintf(os.Stderr, "benchmark: internal error: metric %q is not declared\n", name)
			os.Exit(1)
		}
	}
	emit(map[string]any{"provenance": prov, "details": r.details})
	emit(res)
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
