package fuzzgen

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"rolag"
	"rolag/internal/cc"
	"rolag/internal/faultpoint"
	"rolag/internal/interp"
	"rolag/internal/ir"
	"rolag/internal/passes"
)

// The tests in this file pin the sandbox contract the optimistic
// canonicalization stage keeps: one guard decision and one fault draw
// per pass visit, the culprit named by the replay, and the degraded
// reports of a fixed fault seed. Their names start with TestChaos so
// `make chaos-smoke` runs them under -race.

// chaosDegradedPinned lists, one per line, the Degraded entries
// ("<program> <pass> <func> <reason>") of chaosDegradedLines, taken
// with every pass executed under its own checkpoint and verify.
const chaosDegradedPinned = "testdata/chaos-degraded.txt"

// chaosDegradedLines builds 60 generated programs fail-soft with every
// pass site armed at 5% under a fixed seed, for panic, error and
// corrupt faults (stalls are left out to keep the campaign fast), and
// returns the Degraded entries in report order.
func chaosDegradedLines(t *testing.T) []string {
	defer faultpoint.Reset()
	faultpoint.Enable(faultpoint.Options{
		Seed:  7,
		Prob:  0.05,
		Kinds: []faultpoint.Kind{faultpoint.KindPanic, faultpoint.KindError, faultpoint.KindCorrupt},
	})
	configs := []rolag.Config{
		{Opt: rolag.OptRoLAG},
		{Opt: rolag.OptRoLAG, Unroll: 8, Flatten: true},
	}
	var lines []string
	for i := 0; i < 60; i++ {
		cfg := configs[i%len(configs)]
		cfg.FailSoft = true
		cfg.PassBudget = DefaultChaosBudget
		res, err := rolag.Build(Generate(int64(3000+i), 40), cfg)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if res.Degraded == nil {
			continue
		}
		for _, sk := range res.Degraded.Skips {
			lines = append(lines, fmt.Sprintf("%d %s %s %s", i, sk.Pass, sk.Func, sk.Reason))
		}
	}
	return lines
}

// TestChaosDegradedPinned: under a fixed fault seed the fail-soft
// pipeline reports exactly the pinned (pass, function, reason) entries.
func TestChaosDegradedPinned(t *testing.T) {
	raw, err := os.ReadFile(chaosDegradedPinned)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := chaosDegradedLines(t)
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("degraded entry %d: got %q, want %q (%d entries, want %d)", i, g, w, len(got), len(want))
		}
	}
}

// countingGuard admits every pass and counts Allow and Report calls per
// pass name.
type countingGuard struct {
	allows, reports map[string]int
	failed          []string
}

func newCountingGuard() *countingGuard {
	return &countingGuard{allows: map[string]int{}, reports: map[string]int{}}
}

func (g *countingGuard) Allow(pass string) bool { g.allows[pass]++; return true }

func (g *countingGuard) Report(pass string, ok bool) {
	g.reports[pass]++
	if !ok {
		g.failed = append(g.failed, pass)
	}
}

// TestChaosGuardOneDecisionPerVisit: a guard sees exactly one Allow and
// one Report per pass visit, 21 per function (ten canonicalization
// passes, RoLAG, ten cleanup passes), with nothing failing and with one
// canonicalization pass failing, whose visit is the one reported
// failed.
func TestChaosGuardOneDecisionPerVisit(t *testing.T) {
	defer faultpoint.Reset()
	src := Generate(3001, 40)
	for _, arm := range []string{"", "pass:licm=panic:1", "pass:cse=corrupt:1", "pass:dce=error:1"} {
		t.Run(strings.TrimPrefix(arm, "pass:"), func(t *testing.T) {
			faultpoint.Reset()
			if arm != "" {
				if err := faultpoint.ArmSpec(arm); err != nil {
					t.Fatal(err)
				}
			}
			g := newCountingGuard()
			res, err := rolag.Build(src, rolag.Config{Opt: rolag.OptRoLAG, FailSoft: true, Guard: g})
			if err != nil {
				t.Fatal(err)
			}
			funcs := 0
			for _, f := range res.Module.Funcs {
				if !f.IsDecl() {
					funcs++
				}
			}
			total := 0
			for pass, n := range g.allows {
				if g.reports[pass] != n {
					t.Errorf("%s: %d Allow calls, %d Report calls", pass, n, g.reports[pass])
				}
				total += n
			}
			if want := 21 * funcs; total != want {
				t.Errorf("%d Allow calls over %d functions, want %d", total, funcs, want)
			}
			if arm == "" {
				if len(g.failed) != 0 || res.Degraded != nil {
					t.Fatalf("clean build reported failures %v, degraded %v", g.failed, res.Degraded)
				}
				return
			}
			pass := strings.TrimPrefix(strings.Split(arm, "=")[0], "pass:")
			if len(g.failed) != 1 || g.failed[0] != pass {
				t.Fatalf("reported failures %v, want exactly [%s]", g.failed, pass)
			}
			if res.Degraded == nil || len(res.Degraded.Skips) != 1 || res.Degraded.Skips[0].Pass != pass {
				t.Fatalf("degraded %v, want one %s skip", res.Degraded, pass)
			}
		})
	}
}

// TestChaosEveryStandardPosition arms one fault of each kind at each
// position of the Standard pipeline and checks that exactly that visit
// is skipped for the kind's reason, that exactly one fault fired, and
// that the output is verifier-clean and interpreter-equivalent to the
// source. Each position gets a name of its own so that a count-armed
// site fires there and nowhere else in the stage.
func TestChaosEveryStandardPosition(t *testing.T) {
	budget := 20 * time.Millisecond * raceDelayScale
	kinds := []struct {
		kind   faultpoint.Kind
		reason passes.SkipReason
	}{
		{faultpoint.KindPanic, passes.SkipPanic},
		{faultpoint.KindError, passes.SkipError},
		{faultpoint.KindCorrupt, passes.SkipVerify},
		{faultpoint.KindStall, passes.SkipTimeout},
	}
	src := Generate(3002, 40)
	ref, err := cc.Compile(src, "ref")
	if err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()
	h := &interp.Harness{MaxSteps: 2_000_000}
	for pos := range passes.Standard().Passes {
		for _, k := range kinds {
			p := passes.Standard()
			name := fmt.Sprintf("%s.%d", p.Passes[pos].Name, pos)
			p.Passes[pos].Name = name
			t.Run(name+"/"+k.kind.String(), func(t *testing.T) {
				faultpoint.Reset()
				faultpoint.Enable(faultpoint.Options{Stall: budget + 30*time.Millisecond})
				faultpoint.Arm("pass:"+name, k.kind, 1)
				m := ir.CloneModule(ref)
				sb := &passes.Sandbox{Budget: budget}
				p.RunSandboxed(m, sb)
				if n := faultpoint.Fired(); n != 1 {
					t.Fatalf("%d faults fired, want 1", n)
				}
				rep := sb.Report()
				if rep == nil || len(rep.Skips) != 1 {
					t.Fatalf("want one skip, got %v", rep)
				}
				if sk := rep.Skips[0]; sk.Pass != name || sk.Reason != k.reason {
					t.Fatalf("skip %v, want %s for %s", sk, k.reason, name)
				}
				if err := m.Verify(); err != nil {
					t.Fatalf("degraded module fails verification: %v", err)
				}
				for _, f := range ref.Funcs {
					if f.IsDecl() {
						continue
					}
					if err := interp.CheckEquiv(ref, m, f.Name, 3, h); err != nil {
						t.Fatalf("@%s: %v", f.Name, err)
					}
				}
			})
		}
	}
}
