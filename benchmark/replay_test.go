package main

import (
	"testing"
	"time"
)

// The traced replay must compile byte for byte what rolag.Build and
// the backend compile, on both paths the benchmark replays.

func TestReplayMatchesBuildOnTSVC(t *testing.T) {
	jobs := tsvcJobs(1)
	if testing.Short() {
		jobs = jobs[:8]
	}
	l := newLedger()
	for _, j := range jobs {
		want, err := build(j, false, true)
		if err != nil {
			t.Fatalf("%s: build: %v", j.name, err)
		}
		got, err := l.replay(j, false, true)
		if err != nil {
			t.Fatalf("%s: replay: %v", j.name, err)
		}
		if got != want {
			t.Errorf("%s: replay output differs from rolag.Build", j.name)
		}
	}
	if l.t["unroll.unroll"] == 0 || l.t["passes.flatten"] == 0 || l.n["rolag.loops_rolled"] == 0 {
		t.Errorf("unroll, flatten or rolling left no trace in the ledger: %v %v", l.t, l.n)
	}
	if l.n["passes.sandbox_runs"] != 0 {
		t.Errorf("the fail-hard path ran %d sandboxed executions", l.n["passes.sandbox_runs"])
	}
}

func TestReplayMatchesBuildOnTheEnginePath(t *testing.T) {
	jobs, _, err := anghaJobs(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	l := newLedger()
	for _, j := range jobs {
		want, err := build(j, false, true)
		if err != nil {
			t.Fatalf("%s: build: %v", j.name, err)
		}
		got, err := l.replay(j, true, true)
		if err != nil {
			t.Fatalf("%s: replay: %v", j.name, err)
		}
		if got != want {
			t.Errorf("%s: fail-soft replay differs from the fail-hard build", j.name)
		}
	}
	if l.n["passes.sandbox_runs"] == 0 || l.t["passes.sandbox_overhead"] <= 0 {
		t.Errorf("the fail-soft path priced no sandbox: %v", l.n)
	}
	if l.t["ir.print"] == 0 {
		t.Error("the engine path printed no IR")
	}
}

func TestTracedRunAccountsForItsWallTime(t *testing.T) {
	if testing.Short() {
		t.Skip("times a traced run")
	}
	r, err := traceCompile(params{dur: 200 * time.Millisecond}, tsvcJobs(2)[:20], false)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d failed operations: %v", r.failed, r.details)
	}
	// A generous limit: the benchmark's own figure is checked on full runs.
	if u := r.metrics["unattributed_share"]; u < -0.05 || u > 0.2 {
		t.Errorf("unattributed share %v", u)
	}
	for name := range r.metrics {
		if !defined(perLayer, name) {
			t.Errorf("traced run reports undeclared metric %q", name)
		}
	}
}
