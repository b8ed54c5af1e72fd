package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"rolag/internal/rolagdapi"
)

func TestScheduleIsSeedDeterministic(t *testing.T) {
	a := poissonZipf(7, 500, 2*time.Second, 256, zipfS)
	b := poissonZipf(7, 500, 2*time.Second, 256, zipfS)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if c := poissonZipf(8, 500, 2*time.Second, 256, zipfS); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave one schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	const rate, dur, keys = 1000.0, 20 * time.Second, 64
	s := poissonZipf(3, rate, dur, keys, zipfS)
	if want := rate * dur.Seconds(); math.Abs(float64(len(s))-want) > 4*math.Sqrt(want) {
		t.Fatalf("%d arrivals, want about %v", len(s), want)
	}
	hits := make([]int, keys)
	for i, a := range s {
		if a.At < 0 || a.At >= dur || (i > 0 && a.At < s[i-1].At) {
			t.Fatalf("arrival %d at %v is out of order or range", i, a.At)
		}
		hits[a.Key]++
	}
	if hits[0] <= hits[1] || hits[1] <= hits[keys-1] {
		t.Fatalf("key popularity is not zipf-shaped: %v", hits)
	}
}

func TestTypicalFirstPutsTheMedianSizeOnTop(t *testing.T) {
	lens := []int{5, 1, 9, 3, 7}
	jobs := make([]job, len(lens))
	reqs := make([]rolagdapi.CompileRequest, len(lens))
	for i, n := range lens {
		jobs[i].src = strings.Repeat("x", n)
		reqs[i].Source = jobs[i].src
	}
	typicalFirst(jobs, reqs)
	var got []int
	for i, j := range jobs {
		if reqs[i].Source != j.src {
			t.Fatalf("key %d: request and job were reordered apart", i)
		}
		got = append(got, len(j.src))
	}
	if want := []int{5, 7, 3, 9, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lengths by popularity %v, want %v", got, want)
	}
}

// curve is a synthetic system: p99 stays at 1 ms below knee and jumps
// past the limit above it; flaky lists rates whose first step fails.
type curve struct {
	knee     float64
	flaky    map[float64]bool
	measured []float64
}

func (c *curve) measure(rate float64) step {
	c.measured = append(c.measured, rate)
	s := step{Rate: rate, Offered: rate, Achieved: rate, Lat: summary{N: 2000, Tail: 1}}
	if rate > c.knee {
		s.Lat.Tail = 3 * sloP99Ms
	}
	if c.flaky[rate] {
		delete(c.flaky, rate)
		s.Lat.Tail = 3 * sloP99Ms
	}
	return s
}

func always() bool { return true }

func TestCapacityRampStopsAtTheKnee(t *testing.T) {
	c := &curve{knee: 1000}
	capacity, steps := findCapacity(500, 1.25, 64, always, c.measure)
	// Ladder 500, 625, 781.25, 976.5625 pass; 1220.7 fails twice.
	if want := 500 * math.Pow(1.25, 3); capacity != want {
		t.Fatalf("capacity %v, want %v", capacity, want)
	}
	if len(steps) != 6 || c.measured[4] != c.measured[5] {
		t.Fatalf("measured %v, want four passing rates and the failing one twice", c.measured)
	}
}

func TestCapacityRampRetriesATransientFailure(t *testing.T) {
	c := &curve{knee: 1000, flaky: map[float64]bool{625: true}}
	capacity, _ := findCapacity(500, 1.25, 64, always, c.measure)
	if want := 500 * math.Pow(1.25, 3); capacity != want {
		t.Fatalf("capacity %v after one transient failure, want %v", capacity, want)
	}
}

func TestCapacityRampStepsDownFromAFailingStart(t *testing.T) {
	c := &curve{knee: 300}
	capacity, _ := findCapacity(500, 1.25, 64, always, c.measure)
	if want := 500 / math.Pow(1.25, 3); math.Abs(capacity-want) > 1e-9 {
		t.Fatalf("capacity %v, want %v", capacity, want)
	}
}

func TestCapacityRampRespectsItsBudget(t *testing.T) {
	c := &curve{knee: 1e9}
	capacity, steps := findCapacity(500, 1.25, 3, always, c.measure)
	if len(steps) != 3 || capacity != 500*1.25*1.25 {
		t.Fatalf("%d steps, capacity %v; want 3 steps ending at 781.25", len(steps), capacity)
	}
	n := 0
	capacity, steps = findCapacity(500, 1.25, 64, func() bool { n++; return n <= 1 }, c.measure)
	if len(steps) != 2 || capacity != 625 {
		t.Fatalf("%d steps, capacity %v; want the budget to stop the ramp after 2", len(steps), capacity)
	}
}

func TestStepRule(t *testing.T) {
	ok := step{Offered: 100, Achieved: 96, Lat: summary{N: 1000, Tail: sloP99Ms}}
	if !ok.ok() {
		t.Fatal("a step at the limit should pass")
	}
	for name, s := range map[string]step{
		"slow":   {Offered: 100, Achieved: 96, Lat: summary{N: 1000, Tail: sloP99Ms + 0.01}},
		"behind": {Offered: 100, Achieved: 94, Lat: summary{N: 1000, Tail: 1}},
		"failed": {Offered: 100, Achieved: 100, Lat: summary{N: 1000, Tail: 1}, Failed: 1},
		"empty":  {Offered: 100, Achieved: 100},
	} {
		if s.ok() {
			t.Errorf("%s step passed", name)
		}
	}
}
