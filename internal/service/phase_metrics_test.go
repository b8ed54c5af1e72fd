package service

import (
	"context"
	"strings"
	"testing"

	"rolag"
	"rolag/internal/obs"
)

// TestPhaseMetrics drives RoLAG compilations with span stats enabled,
// then checks that the per-phase histograms surface in the snapshot and
// in the Prometheus exposition with cumulative buckets.
func TestPhaseMetrics(t *testing.T) {
	obs.EnableSpanStats(true)
	defer obs.EnableSpanStats(false)
	obs.ResetSpanStats()

	e := New(Config{})
	defer e.Close(context.Background())

	for _, fn := range corpus(t, 12) {
		if _, err := e.Compile(context.Background(), Request{
			Source: fn.Src,
			Config: rolag.Config{Opt: rolag.OptRoLAG},
		}); err != nil {
			t.Fatal(err)
		}
	}

	s := e.Metrics()
	if len(s.Phases) < 4 {
		t.Fatalf("snapshot has %d phases, want at least the 4 RoLAG phases", len(s.Phases))
	}
	byName := make(map[string]PhaseStat)
	for _, ph := range s.Phases {
		byName[ph.Phase] = ph
	}
	seed, ok := byName["seed"]
	if !ok || seed.Count == 0 {
		t.Fatalf("seed phase not recorded: %+v", s.Phases)
	}
	for _, ph := range s.Phases {
		if len(ph.Buckets) != len(obs.SpanBounds)+1 {
			t.Fatalf("phase %s has %d buckets, want %d", ph.Phase, len(ph.Buckets), len(obs.SpanBounds)+1)
		}
		var prev int64
		for _, b := range ph.Buckets {
			if b.Count < prev {
				t.Fatalf("phase %s buckets not cumulative: %+v", ph.Phase, ph.Buckets)
			}
			prev = b.Count
		}
		if inf := ph.Buckets[len(ph.Buckets)-1]; inf.Count != ph.Count {
			t.Fatalf("phase %s +Inf bucket %d != count %d", ph.Phase, inf.Count, ph.Count)
		}
	}

	var sb strings.Builder
	s.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"# TYPE rolagd_phase_seconds histogram",
		`rolagd_phase_seconds_bucket{phase="seed",le="+Inf"}`,
		`rolagd_phase_seconds_count{phase="codegen"}`,
		`rolagd_phase_seconds_sum{phase="align"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}

	// Disabled timing must drop the series from fresh snapshots.
	obs.EnableSpanStats(false)
	if s := e.Metrics(); len(s.Phases) != 0 {
		t.Errorf("phases present with timing disabled: %+v", s.Phases)
	}
}
