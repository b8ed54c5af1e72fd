package rolag_test

import (
	"testing"

	"rolag/internal/cc"
	"rolag/internal/fuzzgen"
	"rolag/internal/ir"
	"rolag/internal/passes"
	"rolag/internal/rolag"
	"rolag/internal/unroll"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// TestRollBoundSound: over the angha, TSVC (unrolled 0 and 8 times)
// and fuzzgen corpora, with every valid roll kept, the lower bound
// that rejects a roll before codegen must never exceed the exact cost
// delta of generating it.
func TestRollBoundSound(t *testing.T) {
	inputs := rollCorpus(20220402, 300)
	for _, cfg := range []struct {
		name string
		opts *rolag.Options
	}{{"default", rolag.DefaultOptions()}, {"extensions", rolag.Extensions()}} {
		t.Run(cfg.name, func(t *testing.T) {
			cfg.opts.AlwaysRoll = true
			var attempts, rejectable, unprofitable, bad int
			current := ""
			stop := rolag.WatchPricing(func(a rolag.PricedAttempt) {
				attempts++
				if a.Delta >= 0 {
					unprofitable++
				}
				if a.Bound >= 0 {
					rejectable++
				}
				if a.Bound > a.Delta {
					bad++
					if bad <= 10 {
						t.Errorf("%s (@%s): bound %+d, delta %+d", current, a.Func, a.Bound, a.Delta)
					}
				}
			})
			defer stop()
			for _, in := range inputs {
				current = in.name
				in.roll(t, cfg.opts)
			}
			if bad > 0 {
				t.Fatalf("%d of %d attempts unsound", bad, attempts)
			}
			if attempts < 1000 || rejectable == 0 {
				t.Fatalf("%d attempts, %d rejectable by the bound: the corpora exercise nothing", attempts, rejectable)
			}
			t.Logf("%d attempts: %d unprofitable, %d of them rejected by the bound", attempts, unprofitable, rejectable)
		})
	}
}

// corpusInput is one program of rollCorpus: mini-C source and the
// factor its loops are unrolled by before rolling (0: not unrolled).
type corpusInput struct {
	name, src string
	unroll    int
}

// rollCorpus is the corpus the roll-attempt soundness tests watch:
// angha.Generate(2000, anghaSeed), every TSVC kernel unrolled 0 and 8
// times, and fuzz fuzzgen programs (50 under -short).
func rollCorpus(anghaSeed int64, fuzz int) []corpusInput {
	var inputs []corpusInput
	for _, fn := range angha.Generate(2000, anghaSeed) {
		inputs = append(inputs, corpusInput{fn.Name, fn.Src, 0})
	}
	for _, k := range tsvc.Kernels() {
		inputs = append(inputs, corpusInput{k.Name, k.Src, 0}, corpusInput{k.Name + "/unroll8", k.Src, 8})
	}
	if testing.Short() {
		fuzz = min(fuzz, 50)
	}
	for seed := int64(0); seed < int64(fuzz); seed++ {
		inputs = append(inputs, corpusInput{"fuzzgen", fuzzgen.Generate(seed, 48), 0})
	}
	return inputs
}

// roll prepares the input and runs RoLAG on it under opts.
func (in corpusInput) roll(t *testing.T, opts *rolag.Options) {
	t.Helper()
	rolag.RollModule(in.prepare(t), opts)
}

// prepare compiles and canonicalizes the input and unrolls it.
func (in corpusInput) prepare(t *testing.T) *ir.Module {
	t.Helper()
	m, err := cc.Compile(in.src, in.name)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	passes.Standard().Run(m)
	if in.unroll > 0 {
		for _, f := range m.Funcs {
			unroll.UnrollAll(f, in.unroll)
		}
		passes.Standard().Run(m)
	}
	return m
}

// TestRejectedRollLeavesNoTrace: over angha.Generate(2000, 1), the
// TSVC kernels (unrolled 0 and 8 times) and a fuzzgen sample, a
// function RoLAG keeps no roll in comes back exactly as it went in:
// the same printed body, the same name counter and the same module
// globals, however many attempts were rejected on the way, by the
// bound or by pricing the generated loop.
func TestRejectedRollLeavesNoTrace(t *testing.T) {
	inputs := rollCorpus(1, 100)
	for _, cfg := range []struct {
		name string
		opts *rolag.Options
	}{{"default", rolag.DefaultOptions()}, {"extensions", rolag.Extensions()}} {
		t.Run(cfg.name, func(t *testing.T) {
			var noRoll, rejected, bad int
			for _, in := range inputs {
				m := in.prepare(t)
				for _, f := range m.Funcs {
					if f.IsDecl() {
						continue
					}
					body, counter, globals := f.String(), rolag.NameCounter(f), len(m.Globals)
					stats := rolag.RollFuncInto(f, cfg.opts, nil, m, nil)
					if stats.LoopsRolled > 0 {
						continue
					}
					noRoll++
					if stats.NotProfitable > 0 {
						rejected++
					}
					if f.String() == body && rolag.NameCounter(f) == counter && len(m.Globals) == globals {
						continue
					}
					bad++
					if bad <= 5 {
						t.Errorf("%s (@%s), %d rejected rolls: name counter %d, was %d; %d globals, were %d; body changed: %v",
							in.name, f.Name, stats.NotProfitable, rolag.NameCounter(f), counter,
							len(m.Globals), globals, f.String() != body)
					}
				}
			}
			if bad > 0 {
				t.Fatalf("%d of %d functions with no roll kept were changed", bad, noRoll)
			}
			if rejected == 0 {
				t.Fatalf("no roll was rejected in %d functions with no roll kept: the corpora exercise nothing", noRoll)
			}
			t.Logf("%d functions with no roll kept, %d of them with rejected rolls", noRoll, rejected)
		})
	}
}
