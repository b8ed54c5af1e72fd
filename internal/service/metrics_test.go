package service

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rolag/internal/obs/fleet"
)

// TestCompileLatencyExposition observes known compile durations and
// pins the rolagd_compile_seconds exposition lines and the snapshot's
// JSON keys. The durations are exact binary fractions of a second, so
// the sum prints exactly.
func TestCompileLatencyExposition(t *testing.T) {
	var m metrics
	for _, d := range []time.Duration{
		3906250 * time.Nanosecond, // 2^-8 s: le 0.005
		125 * time.Millisecond,    // le 0.25
		500 * time.Millisecond,    // le 0.5
		500 * time.Millisecond,    // le 0.5
		8 * time.Second,           // +Inf
	} {
		m.observeCompile(d)
	}
	s := m.snapshot()

	var sb strings.Builder
	s.WritePrometheus(&sb)
	want := `# HELP rolagd_compile_seconds Latency of fresh compilations.
# TYPE rolagd_compile_seconds histogram
rolagd_compile_seconds_bucket{le="0.0005"} 0
rolagd_compile_seconds_bucket{le="0.001"} 0
rolagd_compile_seconds_bucket{le="0.0025"} 0
rolagd_compile_seconds_bucket{le="0.005"} 1
rolagd_compile_seconds_bucket{le="0.01"} 1
rolagd_compile_seconds_bucket{le="0.025"} 1
rolagd_compile_seconds_bucket{le="0.05"} 1
rolagd_compile_seconds_bucket{le="0.1"} 1
rolagd_compile_seconds_bucket{le="0.25"} 2
rolagd_compile_seconds_bucket{le="0.5"} 4
rolagd_compile_seconds_bucket{le="1"} 4
rolagd_compile_seconds_bucket{le="2.5"} 4
rolagd_compile_seconds_bucket{le="5"} 4
rolagd_compile_seconds_bucket{le="+Inf"} 5
rolagd_compile_seconds_sum 9.12890625
rolagd_compile_seconds_count 5
`
	if !strings.HasSuffix(sb.String(), want) {
		t.Errorf("exposition does not end with the compile histogram:\n%s\nwant suffix:\n%s", sb.String(), want)
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{
		"latency_count":       "5",
		"latency_sum_seconds": "9.12890625",
	} {
		if string(keys[k]) != v {
			t.Errorf("JSON %s = %s, want %s", k, keys[k], v)
		}
	}
	var buckets []map[string]float64
	if err := json.Unmarshal(keys["latency_buckets"], &buckets); err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 14 || buckets[13]["le"] != fleet.Inf || buckets[13]["count"] != 5 || buckets[9]["le"] != 0.5 || buckets[9]["count"] != 4 {
		t.Errorf("JSON latency_buckets = %v", buckets)
	}
}

// TestPhaseHistExposition pins the labelled rolagd_phase_seconds lines,
// rendered by the same helper as the compile histogram.
func TestPhaseHistExposition(t *testing.T) {
	s := MetricsSnapshot{Phases: []PhaseStat{{
		Phase:      "seed",
		Count:      3,
		SumSeconds: 0.75,
		Buckets:    []fleet.Bucket{{LE: 1e-7, Count: 1}, {LE: 1, Count: 2}, {LE: fleet.Inf, Count: 3}},
	}}}
	var sb strings.Builder
	s.WritePrometheus(&sb)
	want := `# HELP rolagd_phase_seconds Wall-clock of RoLAG pipeline phases.
# TYPE rolagd_phase_seconds histogram
rolagd_phase_seconds_bucket{phase="seed",le="1e-07"} 1
rolagd_phase_seconds_bucket{phase="seed",le="1"} 2
rolagd_phase_seconds_bucket{phase="seed",le="+Inf"} 3
rolagd_phase_seconds_sum{phase="seed"} 0.75
rolagd_phase_seconds_count{phase="seed"} 3
`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("exposition missing the phase histogram:\n%s\nwant:\n%s", sb.String(), want)
	}
}
