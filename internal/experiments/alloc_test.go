package experiments_test

import (
	"testing"

	"rolag"
	"rolag/internal/workloads/angha"
)

// pinnedCorpusFunc returns fn_fieldcopy_0007 from the canonical seeded
// corpus — the Linux-KVM struct-copy shape that tops the paper's
// Fig. 15, and the heaviest single roll in the corpus prefix (136
// instructions matched). Pinning one function keeps the allocation
// budget below meaningful: the work per Build call never changes.
func pinnedCorpusFunc(t testing.TB) angha.Function {
	funcs := angha.Generate(8, 20220402)
	fn := funcs[7]
	if fn.Name != "fn_fieldcopy_0007" || fn.Family != angha.FamFieldCopy {
		t.Fatalf("corpus drifted: funcs[7] = %s (%s), want fn_fieldcopy_0007 (field-copy); "+
			"re-pin the function and re-measure the allocation budget", fn.Name, fn.Family)
	}
	return fn
}

// rollAllocBudget is the allocs-per-Build ceiling for the pinned
// function. Measured at ~2.8k allocs/op; the ceiling, about twice that,
// leaves headroom for legitimate churn while still catching a return of
// the per-call map-rebuild pattern (which costs several times more).
const rollAllocBudget = 6000

// TestRollAllocBudget is the tier-1 allocation regression gate on the
// RoLAG hot path.
func TestRollAllocBudget(t *testing.T) {
	fn := pinnedCorpusFunc(t)
	cfg := rolag.Config{Opt: rolag.OptRoLAG}
	// Warm-up and sanity: the pinned function must actually roll,
	// otherwise the budget would silently measure a no-op pipeline.
	res, err := rolag.Build(fn.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.LoopsRolled == 0 {
		t.Fatalf("pinned function %s no longer rolls; stats: %+v", fn.Name, res.Stats)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := rolag.Build(fn.Src, cfg); err != nil {
			t.Error(err)
		}
	})
	if avg > rollAllocBudget {
		t.Errorf("rolag.Build(%s): %.0f allocs/op, budget %d", fn.Name, avg, rollAllocBudget)
	}

	// The same ceiling must hold with the remark machinery compiled in
	// but disabled (the default): the disabled path is a handful of nil
	// Recorder checks and must not allocate. Config.Remarks defaults to
	// false, so this re-measure only documents the claim explicitly —
	// if remarks ever leak allocations into the disabled hot path, both
	// measurements blow the budget together.
	cfg.Remarks = false
	avgOff := testing.AllocsPerRun(10, func() {
		if _, err := rolag.Build(fn.Src, cfg); err != nil {
			t.Error(err)
		}
	})
	if avgOff > rollAllocBudget {
		t.Errorf("rolag.Build(%s) with remarks disabled: %.0f allocs/op, budget %d", fn.Name, avgOff, rollAllocBudget)
	}
}

// pinnedRejectedFunc returns fn_fieldcopy_0880 from angha.Generate(1000,
// 1), the corpus the angha-cold benchmark sends. Its largest attempt is
// a 3-lane mul reduction whose 235-node alignment graph (one lane's
// 115-op chain padded with neutral elements) is priced and rejected;
// one small roll elsewhere is kept.
func pinnedRejectedFunc(t testing.TB) angha.Function {
	fn := angha.Generate(1000, 1)[880]
	if fn.Name != "fn_fieldcopy_0880" || fn.Family != angha.FamFieldCopy {
		t.Fatalf("corpus drifted: funcs[880] = %s (%s), want fn_fieldcopy_0880 (field-copy); "+
			"re-pin the function and re-measure the allocation budget", fn.Name, fn.Family)
	}
	return fn
}

// rejectedAllocBudget is the fail-soft allocs-per-Build ceiling for
// pinnedRejectedFunc. Measured at ~8.4k allocs/op with every roll
// attempt of a function aligned and scheduled in one reused arena; the
// ceiling, about twice that, fails when alignment allocates per node
// again (~20k allocs/op).
const rejectedAllocBudget = 17000

// TestRejectedAlignAllocBudget is the tier-1 allocation gate on roll
// attempts that align, schedule and are then rejected, which
// TestRollAllocBudget's rolling function does not cover.
func TestRejectedAlignAllocBudget(t *testing.T) {
	fn := pinnedRejectedFunc(t)
	cfg := rolag.Config{Opt: rolag.OptRoLAG, FailSoft: true}
	res, err := rolag.Build(fn.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Stats; s == nil || s.NotProfitable == 0 || res.Degraded != nil {
		t.Fatalf("pinned function %s must reject a roll as unprofitable, cleanly; stats %+v, degraded %v", fn.Name, s, res.Degraded)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := rolag.Build(fn.Src, cfg); err != nil {
			t.Error(err)
		}
	})
	if avg > rejectedAllocBudget {
		t.Errorf("rolag.Build(%s), fail-soft: %.0f allocs/op, budget %d", fn.Name, avg, rejectedAllocBudget)
	}
}

// sandboxAllocRatio caps fail-soft allocations on the pinned function
// as a multiple of fail-hard ones. The sandbox checkpoints and verifies
// the function three times per Build (once per canonicalization stage
// and once for RoLAG); measured at 1.05x (2,923 against 2,772
// allocs/op), against 1.40x when every one of the 21 pass executions
// was checkpointed and verified on its own and ~2.2x when every
// execution deep-cloned the body.
const sandboxAllocRatio = 1.15

// TestSandboxAllocOverhead is the allocation gate on the fail-soft
// sandbox: its per-execution checkpoints must stay cheap next to the
// work of the passes they protect.
func TestSandboxAllocOverhead(t *testing.T) {
	fn := pinnedCorpusFunc(t)
	allocs := func(cfg rolag.Config) float64 {
		res, err := rolag.Build(fn.Src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats == nil || res.Stats.LoopsRolled == 0 || res.Degraded != nil {
			t.Fatalf("pinned function %s must roll cleanly; stats %+v, degraded %v", fn.Name, res.Stats, res.Degraded)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := rolag.Build(fn.Src, cfg); err != nil {
				t.Error(err)
			}
		})
	}
	hard := allocs(rolag.Config{Opt: rolag.OptRoLAG})
	soft := allocs(rolag.Config{Opt: rolag.OptRoLAG, FailSoft: true})
	t.Logf("fail-soft %.0f allocs/op, fail-hard %.0f (%.2fx)", soft, hard, soft/hard)
	if soft > sandboxAllocRatio*hard {
		t.Errorf("rolag.Build(%s): fail-soft %.0f allocs/op is %.2fx fail-hard %.0f, limit %.1fx",
			fn.Name, soft, soft/hard, hard, sandboxAllocRatio)
	}
}

// BenchmarkRollAngha compiles a fixed slice of the canonical corpus
// with RoLAG per iteration, fail-hard and under the fail-soft sandbox
// the service runs; allocs/op is the headline metric the
// allocation-lean work targets. It is also the profiling entry point
// of the optimizer and of the sandbox:
//
//	go test ./internal/experiments -run '^$' -bench 'RollAngha/fail-hard' -cpuprofile cpu.prof
//	go test ./internal/experiments -run '^$' -bench 'RollAngha/fail-soft' -cpuprofile cpu.prof
func BenchmarkRollAngha(b *testing.B) {
	funcs := angha.Generate(60, 20220402)
	for _, mode := range []struct {
		name     string
		failSoft bool
	}{{"fail-hard", false}, {"fail-soft", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := rolag.Config{Opt: rolag.OptRoLAG, FailSoft: mode.failSoft}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, fn := range funcs {
					if _, err := rolag.Build(fn.Src, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
