package rolag_test

import (
	"testing"

	"rolag/internal/rolag"
)

// TestAttemptArenaMatchesFresh: on every roll attempt over the
// rollCorpus programs, with every valid roll kept, the graph and the
// schedule built in the function's reused attempt arena must equal the
// ones a fresh arena builds for the same attempt: the graph's
// rendering, its matched instructions with their lanes and its node
// kinds, the PRE and POST placements and the emission order, or else
// the same error.
func TestAttemptArenaMatchesFresh(t *testing.T) {
	inputs := rollCorpus(20220402, 300)
	for _, cfg := range []struct {
		name string
		opts *rolag.Options
	}{{"default", rolag.DefaultOptions()}, {"extensions", rolag.Extensions()}} {
		t.Run(cfg.name, func(t *testing.T) {
			cfg.opts.AlwaysRoll = true
			var attempts, bad int
			current := ""
			stop := rolag.WatchArena(func(fn, diff string) {
				attempts++
				if diff != "" {
					bad++
					if bad <= 5 {
						t.Errorf("%s (@%s):\n%s", current, fn, diff)
					}
				}
			})
			defer stop()
			for _, in := range inputs {
				current = in.name
				in.roll(t, cfg.opts)
			}
			if bad > 0 {
				t.Fatalf("%d of %d attempts differ from a fresh arena", bad, attempts)
			}
			if attempts < 1000 {
				t.Fatalf("%d attempts: the corpora exercise nothing", attempts)
			}
			t.Logf("%d attempts, each equal in a fresh arena", attempts)
		})
	}
}
