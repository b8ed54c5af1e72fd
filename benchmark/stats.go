package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples a reported tail percentile must have
// beyond it. With fewer samples the tail is reported at the highest
// rank that still has minTail samples above it.
const minTail = 10

// summary is a latency distribution reduced to the numbers the
// benchmark reports.
type summary struct {
	N      int
	P50    float64
	Tail   float64 // the value reported as p99
	TailQ  float64 // the quantile Tail actually sits at (0.99 unless N is small)
	Beyond int     // samples strictly above Tail's rank
}

// rank returns the 1-based nearest-rank position of quantile q in n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// summarize sorts xs in place and returns its median and p99, moving
// the tail rank down until at least minTail samples lie beyond it.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	s := summary{N: n, P50: xs[rank(n, 0.5)-1]}
	r := rank(n, 0.99)
	if n-r < minTail {
		r = n - minTail
	}
	if r < 1 {
		r = n
	}
	s.Tail = xs[r-1]
	s.TailQ = float64(r) / float64(n)
	s.Beyond = n - r
	return s
}

// median returns the nearest-rank median of xs (sorted in place).
func median(xs []float64) float64 { return summarize(xs).P50 }

// perInputMedian returns lat with every sample replaced by the median
// of the samples taken on the same input: lat[i] was taken on input
// keys[i]. When a fixed input set is compiled over and over, this is
// each input's own latency; the passes on which a garbage collection or
// another tenant of the host happened to land no longer set the tail.
func perInputMedian(lat []float64, keys []int) []float64 {
	byKey := make(map[int][]float64)
	for i, k := range keys {
		byKey[k] = append(byKey[k], lat[i])
	}
	med := make(map[int]float64, len(byKey))
	for k, xs := range byKey {
		med[k] = median(xs)
	}
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = med[k]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
