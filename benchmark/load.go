package main

import (
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"rolag/internal/rolagdapi"
)

// requestTimeout bounds one request; a timeout counts as a failed
// operation.
const requestTimeout = 30 * time.Second

// sloP99Ms is the latency limit a ramp step must meet at its p99.
const sloP99Ms = 5.0

// newClient returns a non-retrying rolagd client whose transport opens
// at most conns connections to the host, so the generator never uses
// more connections than the machine has processors. A shed (429) or
// any other error comes back to the caller instead of being retried.
func newClient(base string, conns int) (*rolagdapi.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	hc := &http.Client{Transport: tr, Timeout: requestTimeout}
	return &rolagdapi.Client{BaseURL: base, HTTPClient: hc, MaxAttempts: 1}, tr
}

// arrival is one scheduled open-loop request.
type arrival struct {
	At  time.Duration // when it is due, from the start of its phase
	Key int           // index into the key set
}

// poissonZipf draws an open-loop schedule from seed: Poisson arrivals
// at rate requests/s for dur, each keyed by a zipf(s) draw over keys
// keys (key 0 is the most popular).
func poissonZipf(seed int64, rate float64, dur time.Duration, keys int, s float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, s, 1, uint64(keys-1))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, arrival{At: time.Duration(t * float64(time.Second)), Key: int(zipf.Uint64())})
	}
}

// outcome is what happened to one request.
type outcome struct {
	Lat  time.Duration // completion minus due (open loop) or send (closed loop)
	Late time.Duration // send minus due; zero in a closed loop
	Done time.Duration // completion, from the start of the phase
	Err  error
	I    int // the request's index in a closed loop
}

// openLoop sends every arrival when it is due, each on its own
// goroutine, whether or not earlier requests have completed, and waits
// for all of them. Latency is timed from the due time, so a stall in
// the system or the generator is charged to every request it delays.
func openLoop(sched []arrival, send func(key int) error) []outcome {
	out := make([]outcome, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		if d := a.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			late := time.Since(start) - a.At
			err := send(a.Key)
			done := time.Since(start)
			out[i] = outcome{Lat: done - a.At, Late: late, Done: done, Err: err}
		}(i, a)
	}
	wg.Wait()
	return out
}

// closedLoop runs clients goroutines that each send their next request
// as soon as the previous one completes, until dur has elapsed; send
// gets a request index unique across clients. It returns the outcomes
// in completion order and the time until the last one completed.
func closedLoop(clients int, dur time.Duration, send func(i int) error) ([]outcome, time.Duration) {
	var (
		mu   sync.Mutex
		next int
		all  []outcome
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for time.Since(start) < dur {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				t0 := time.Since(start)
				err := send(i)
				done := time.Since(start)
				mine = append(mine, outcome{Lat: done - t0, Done: done, Err: err, I: i})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(all, func(i, j int) bool { return all[i].Done < all[j].Done })
	return all, elapsed
}

// step is one open-loop phase at a fixed offered rate, reduced to the
// numbers the capacity rule needs.
type step struct {
	Rate     float64 // nominal offered rate, requests/s
	Offered  float64 // scheduled requests over the phase length
	Achieved float64 // completed requests over the time to the last completion
	Lat      summary // ms, timed from due
	Late     summary // ms, generator lateness
	Failed   int
}

// ok reports whether the step meets the capacity rule: p99 within the
// limit, at least 95% of the offered rate achieved, nothing failed.
func (s step) ok() bool {
	return s.Failed == 0 && s.Lat.N > 0 && s.Lat.Tail <= sloP99Ms && s.Achieved >= 0.95*s.Offered
}

// stepOf reduces one open-loop phase of length dur at nominal rate.
func stepOf(rate float64, dur time.Duration, res []outcome) step {
	s := step{Rate: rate, Offered: float64(len(res)) / dur.Seconds()}
	lat := make([]float64, 0, len(res))
	late := make([]float64, 0, len(res))
	last := dur
	for _, r := range res {
		late = append(late, ms(r.Late))
		if r.Err != nil {
			s.Failed++
			continue
		}
		lat = append(lat, ms(r.Lat))
		if r.Done > last {
			last = r.Done
		}
	}
	s.Achieved = float64(len(lat)) / last.Seconds()
	s.Lat = summarize(lat)
	s.Late = summarize(late)
	return s
}

// findCapacity applies the stepped-ramp rule. It measures start first;
// if that rate passes it climbs by growth per step until a rate fails,
// and the capacity is the last passing rate. If start fails it steps
// down by growth until a rate passes. A rate fails only when two steps
// at it fail in a row, so one transient stall does not end the ramp.
// It stops after maxSteps steps or when more reports that the time
// budget is spent. Zero means no rate passed.
func findCapacity(start, growth float64, maxSteps int, more func() bool, measure func(rate float64) step) (float64, []step) {
	var steps []step
	try := func(rate float64) bool {
		s := measure(rate)
		steps = append(steps, s)
		if s.ok() || len(steps) >= maxSteps || !more() {
			return s.ok()
		}
		s = measure(rate)
		steps = append(steps, s)
		return s.ok()
	}
	up := try(start)
	best, dir := 0.0, 1/growth
	if up {
		best, dir = start, growth
	}
	for i := 1; len(steps) < maxSteps && more(); i++ {
		rate := start * math.Pow(dir, float64(i))
		ok := try(rate)
		if ok {
			best = rate
		}
		if ok != up {
			break
		}
	}
	return best, steps
}
