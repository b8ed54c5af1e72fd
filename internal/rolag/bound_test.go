package rolag_test

import (
	"testing"

	"rolag/internal/cc"
	"rolag/internal/fuzzgen"
	"rolag/internal/passes"
	"rolag/internal/rolag"
	"rolag/internal/unroll"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// TestRollBoundSound: over the angha, TSVC (unrolled 0 and 8 times)
// and fuzzgen corpora, with every valid roll kept, the lower bound
// that rejects a roll before codegen must never exceed the exact cost
// delta of generating it, and the names a bound rejection burns must
// be the ones generating the loop would have.
func TestRollBoundSound(t *testing.T) {
	type input struct {
		name, src string
		unroll    int
	}
	var inputs []input
	for _, fn := range angha.Generate(2000, 20220402) {
		inputs = append(inputs, input{fn.Name, fn.Src, 0})
	}
	for _, k := range tsvc.Kernels() {
		inputs = append(inputs, input{k.Name, k.Src, 0}, input{k.Name + "/unroll8", k.Src, 8})
	}
	fuzz := 300
	if testing.Short() {
		fuzz = 50
	}
	for seed := int64(0); seed < int64(fuzz); seed++ {
		inputs = append(inputs, input{"fuzzgen", fuzzgen.Generate(seed, 48), 0})
	}

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
				if a.Bound > a.Delta || a.Burned != a.Generated {
					bad++
					if bad <= 10 {
						t.Errorf("%s (@%s): bound %+d, delta %+d; name counter burned %d, generated %d",
							current, a.Func, a.Bound, a.Delta, a.Burned, a.Generated)
					}
				}
			})
			defer stop()
			for _, in := range inputs {
				current = in.name
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
				rolag.RollModule(m, cfg.opts)
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
