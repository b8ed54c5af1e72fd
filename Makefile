# Build/test entry points. `make ci` is the tier-1 gate plus a gofmt
# check of every tracked Go file, the race detector over the whole
# tree, a short differential-fuzzing smoke, the fault-injection chaos
# smoke, the speed smoke (short tsvc-unroll8 and angha-cold runs of
# the repository benchmark), the assembly-backend smoke, the
# cost-model calibration gate, the cluster smoke (3 shards + router
# under a zipfian burst), and the cluster chaos smoke (faulty links +
# a shard crash-restarted from its cache snapshot mid-burst), and the
# fleet-telemetry smoke (traced burst through the router; every
# sampled trace must stitch across processes and the latency
# aggregation must be self-consistent), and the repository benchmark
# module's own vet and tests. The three cluster smokes share one
# harness, cmd/rolag-loadgen. `make bench-smoke-record` rewrites the
# speed smoke's records on this machine
# (results/bench-smoke-{tsvc,angha}.jsonl), `make bench-cluster` the
# cluster one (results/BENCH_cluster.json), `make bench-chaos` the
# survivability one (results/BENCH_chaos.json), and `make bench-fleet`
# the fleet-telemetry one (results/BENCH_fleet.json). The repository
# benchmark, which times the production cold path layer by layer, is
# `bash benchmark/run.sh` (see benchmark/README.md).

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet fmt test race bench-module fuzz-smoke chaos-smoke bench-smoke explain-smoke asm-smoke calib-check cluster-smoke chaos-cluster-smoke fleet-smoke ci calib bench-smoke-record bench-cluster bench-chaos bench-fleet serve clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when gofmt would rewrite any tracked Go file, and lists them.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository benchmark is its own Go module (benchmark/). It calls
# the sandbox directly and replays rolag.Build stage by stage, pinned
# byte-equal by its tests, so vet and test it with the rest of the tree.
bench-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Short differential-fuzzing run over every native fuzz target; any
# counterexample fails the build and lands in the package's
# testdata/fuzz/. FuzzParseModule's inputs are kilobytes of IR text,
# which the default 60 s minimizer would spend the whole run shrinking,
# so its minimization is capped at 1 s.
fuzz-smoke:
	$(GO) test ./internal/fuzzgen -run '^$$' -fuzz '^FuzzGenerated$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fuzzgen -run '^$$' -fuzz '^FuzzMutated$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fuzzgen -run '^$$' -fuzz '^FuzzSource$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/irparse -run '^$$' -fuzz '^FuzzParseModule$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/rolagdapi -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME)

# Fault-injection chaos smoke: the seeded chaos suite under the race
# detector plus a short rolag-fuzz -chaos campaign. Violations of the
# fail-soft contract (crash, verifier failure, equivalence break, or a
# wrong Degraded report) fail the build.
chaos-smoke:
	$(GO) test -race ./internal/fuzzgen -run '^TestChaos' -short -v
	$(GO) run ./cmd/rolag-fuzz -chaos -n 60 -crashers $(or $(TMPDIR),/tmp)/rolag-chaos-crashers

# Observability smoke: run rolagc -remarks=json over every example C
# program and validate each stream against the committed remark schema
# (internal/obs/schematest/remarks.schema.json). A remark-format change
# that breaks the schema contract fails here before it reaches users.
explain-smoke:
	$(GO) build -o $(or $(TMPDIR),/tmp)/rolagc-smoke ./cmd/rolagc
	@set -e; for f in examples/c/*.c; do \
		echo "explain-smoke: $$f"; \
		$(or $(TMPDIR),/tmp)/rolagc-smoke -remarks json $$f 2>/dev/null \
			| $(GO) run ./internal/obs/schematest/remarklint; \
	done

# Assembly-backend smoke: compile every example straight-line and
# rolled through `rolagc -emit asm`, require nonzero measured .text
# bytes, and require the measured size delta to agree in sign with the
# binary cost model's claimed direction (the calibration gate's sign
# contract, re-checked on the real examples). The IR leg pipes each
# example's un-rolled IR (`-opt none -emit ir`) back into `rolagc -ir`
# and requires the same size: and text: lines as the mini-C build.
asm-smoke:
	$(GO) build -o $(or $(TMPDIR),/tmp)/rolagc-smoke ./cmd/rolagc
	@set -e; for f in examples/c/*.c; do \
		echo "asm-smoke: $$f"; \
		none=$$($(or $(TMPDIR),/tmp)/rolagc-smoke -opt none -emit asm $$f 2>&1 >/dev/null); \
		roll=$$($(or $(TMPDIR),/tmp)/rolagc-smoke -opt rolag -emit asm $$f 2>&1 >/dev/null); \
		mn=$$(printf '%s\n' "$$none" | sed -n 's/^text: \([0-9]*\) bytes.*/\1/p'); \
		mr=$$(printf '%s\n' "$$roll" | sed -n 's/^text: \([0-9]*\) bytes.*/\1/p'); \
		est=$$(printf '%s\n' "$$roll" | sed -n 's/^size: \([0-9]*\) -> \([0-9]*\) bytes.*/\1 \2/p'); \
		echo "$$mn $$mr $$est" | awk -v f=$$f '{ \
			if (NF != 4) { printf "asm-smoke: %s: missing measurements (%s)\n", f, $$0; exit 1 } \
			if ($$1 <= 0 || $$2 <= 0) { printf "asm-smoke: %s: empty .text\n", f; exit 1 } \
			md = $$2 - $$1; ed = $$4 - $$3; \
			ms = (md > 0) - (md < 0); es = (ed > 0) - (ed < 0); \
			if (ms != es) { printf "asm-smoke: %s: measured %+d bytes but model claims %+d\n", f, md, ed; exit 1 } \
		}'; \
		mc=$$(printf '%s\n' "$$roll" | grep -E '^(size|text):'); \
		ir=$$($(or $(TMPDIR),/tmp)/rolagc-smoke -opt none -emit ir $$f 2>/dev/null | \
			$(or $(TMPDIR),/tmp)/rolagc-smoke -ir -opt rolag -emit asm 2>&1 >/dev/null | grep -E '^(size|text):' || true); \
		if [ "$$mc" != "$$ir" ]; then \
			printf 'asm-smoke: %s: IR input sizes differ\n--- mini-C ---\n%s\n--- printed IR ---\n%s\n' "$$f" "$$mc" "$$ir"; exit 1; \
		fi; \
	done

# Cost-model calibration gate: compile a 200-function corpus both
# straight-line and rolled through the assembly backend, and fail if
# the binary cost model drifts past its error gates (MAPE > 15% or
# rolled-vs-straight sign agreement < 95%). The report goes to a
# scratch dir; `make calib` regenerates the committed
# results/CALIB_costmodel.json from the full 400-function corpus.
calib-check:
	$(GO) run ./cmd/experiments -run calib -check -calibn 200 \
		-out $(or $(TMPDIR),/tmp)/rolag-calib-check

calib:
	$(GO) run ./cmd/experiments -run calib -check

# Speed smoke: two 3 s runs of the repository benchmark. The
# tsvc-unroll8 leg is the bare optimizer (rolag.Build with Unroll 8,
# Flatten and RoLAG, then the backend, over the 151 TSVC kernels; no
# service, no sandbox); the angha-cold leg is the production cold path
# (fail-soft rolagd, every request a cache miss). Each leg fails if its
# output is not correct, if any operation failed, or if throughput_ops
# falls below half of its record's, or if alloc_kb_per_op exceeds 1.25x
# its record's. On angha-cold that ceiling catches a return of
# per-node allocation in RoLAG's alignment (roll attempts that each
# allocate their graph instead of reusing the function's attempt
# arena measured 618 KiB against a 458 KiB record), on tsvc-unroll8 a
# return of materialized zero data (each kernel module carries about
# 14 KB of zero-initialized arrays). Each record holds both benchmark output
# lines (provenance: rev, nproc, Go version; then the metrics), taken
# on the machine that runs the gate by `make bench-smoke-record`.
# BENCH_SMOKE_RECORD and BENCH_SMOKE_ANGHA_RECORD name other records.
BENCH_SMOKE = bash benchmark/run.sh --workload tsvc-unroll8 --seed 1 --seconds 3 --trace 0
BENCH_SMOKE_RECORD ?= results/bench-smoke-tsvc.jsonl
BENCH_SMOKE_ANGHA = bash benchmark/run.sh --workload angha-cold --seed 1 --seconds 3 --trace 0
BENCH_SMOKE_ANGHA_RECORD ?= results/bench-smoke-angha.jsonl

bench-smoke:
	@set -e; \
	metric() { sed -n "s/.*\"$$1\":{\"value\":\([0-9.e+-]*\).*/\1/p"; }; \
	gate() { \
		leg=$$1 record=$$2 alloc_max=$$3; shift 3; \
		got=$$("$$@" | tail -n 1); \
		echo "bench-smoke $$leg: $$got"; \
		printf '%s\n' "$$got" | grep -q '"correct":true' || { echo "bench-smoke $$leg: output not correct"; exit 1; }; \
		printf '%s\n' "$$got" | grep -q '"failed":0,' || { echo "bench-smoke $$leg: failed operations"; exit 1; }; \
		awk -v leg="$$leg" -v max="$$alloc_max" \
			-v g="$$(printf '%s\n' "$$got" | metric throughput_ops)" \
			-v r="$$(tail -n 1 $$record | metric throughput_ops)" \
			-v ga="$$(printf '%s\n' "$$got" | metric alloc_kb_per_op)" \
			-v ra="$$(tail -n 1 $$record | metric alloc_kb_per_op)" 'BEGIN { \
			if (g == "" || r == "") { print "bench-smoke " leg ": throughput_ops missing"; exit 1 } \
			printf "bench-smoke %s: throughput %.1f ops/s, record %.1f (ratio %.2f, floor 0.50)\n", leg, g, r, g / r; \
			if (g < 0.5 * r) { print "bench-smoke " leg ": throughput below half the record"; exit 1 } \
			if (max == "") exit 0; \
			if (ga == "" || ra == "") { print "bench-smoke " leg ": alloc_kb_per_op missing"; exit 1 } \
			printf "bench-smoke %s: alloc %.1f KiB/op, record %.1f (ratio %.2f, ceiling %.2f)\n", leg, ga, ra, ga / ra, max; \
			if (ga > max * ra) { print "bench-smoke " leg ": alloc_kb_per_op above the ceiling"; exit 1 } \
		}'; \
	}; \
	gate tsvc-unroll8 $(BENCH_SMOKE_RECORD) 1.25 $(BENCH_SMOKE); \
	gate angha-cold $(BENCH_SMOKE_ANGHA_RECORD) 1.25 $(BENCH_SMOKE_ANGHA)

# Cluster smoke: spawn a local 3-shard cluster plus router and push a
# 500-request zipfian burst through it (a quarter of it shard-direct, so
# the fetch-on-miss peer cache tier is exercised). Fails on any byte
# difference from the serial reference, on zero peer-cache hits, or on a
# >5x p99/throughput regression vs the committed cluster baseline.
cluster-smoke:
	$(GO) run ./cmd/rolag-loadgen -shards 3 -requests 500 -n 120 -rate 400 \
		-require-peer-hits \
		-out $(or $(TMPDIR),/tmp)/rolag-cluster-smoke.json \
		-check results/BENCH_cluster.json -max-slowdown 5

# Cluster chaos smoke: the same local cluster with every router→shard
# link running through armed fault injection (stall/refuse/blackhole)
# and the shard owning the hottest key crashed un-drained mid-burst,
# then restarted from its periodic cache snapshot. Gates: byte parity
# on 100% of successful responses, availability >= 99%, and the
# restarted shard serving snapshot-warm hits.
chaos-cluster-smoke:
	$(GO) run ./cmd/rolag-loadgen -chaos -shards 3 -requests 400 -n 120 \
		-rate 200 -timeout 8s \
		-out $(or $(TMPDIR),/tmp)/rolag-chaos-cluster-smoke.json

# Fleet-telemetry smoke: boot the local 3-shard cluster + router with
# tracing on and one span ring per process, push a traced burst through
# the router, and gate the telemetry plane's SLOs — every sampled
# request must yield a fully-stitched multi-process trace from
# GET /debug/trace/{id} (completeness >= 99%), and the router-observed
# /v1/compile p99 must agree with the fleet-merged shard-reported p99.
fleet-smoke:
	$(GO) run ./cmd/rolag-loadgen -fleet -shards 3 -requests 300 -n 120 -rate 400 \
		-out $(or $(TMPDIR),/tmp)/rolag-fleet-smoke.json

ci: vet fmt build race bench-module fuzz-smoke chaos-smoke bench-smoke explain-smoke asm-smoke calib-check cluster-smoke chaos-cluster-smoke fleet-smoke

# Rewrites the speed smoke's records with one run of each leg on this
# machine.
bench-smoke-record:
	$(BENCH_SMOKE) > $(BENCH_SMOKE_RECORD).tmp
	mv $(BENCH_SMOKE_RECORD).tmp $(BENCH_SMOKE_RECORD)
	$(BENCH_SMOKE_ANGHA) > $(BENCH_SMOKE_ANGHA_RECORD).tmp
	mv $(BENCH_SMOKE_ANGHA_RECORD).tmp $(BENCH_SMOKE_ANGHA_RECORD)

# Full cluster benchmark; regenerates the committed baseline.
bench-cluster:
	$(GO) run ./cmd/rolag-loadgen -out results/BENCH_cluster.json

# Full chaos run; regenerates the committed survivability record.
bench-chaos:
	$(GO) run ./cmd/rolag-loadgen -chaos -timeout 8s -out results/BENCH_chaos.json

# Full fleet-telemetry run; regenerates the committed record.
bench-fleet:
	$(GO) run ./cmd/rolag-loadgen -fleet -out results/BENCH_fleet.json

serve:
	$(GO) run ./cmd/rolagd

clean:
	$(GO) clean ./...
