// Package fleet is the cluster-wide telemetry plane: mergeable latency
// histograms shards report and the router aggregates (Hist is also the
// process's only online latency recorder: compile latency, obs span
// classes and the router's hedge window use it), a scrape
// collector that turns per-shard counter snapshots into fleet-level
// RED metrics (rate, errors, duration), and the trace-stitching
// helpers that merge per-process Chrome trace segments into one
// aligned timeline. It is deliberately stdlib-only and importable from
// both sides of the wire (daemon and router) without cycles.
package fleet

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// LatencyBounds are the request-latency histogram bucket upper bounds
// in seconds. rolagd's compile-latency histogram is a Hist too, so
// per-route request histograms and engine compile histograms render on
// the same axis.
var LatencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Inf stands in for +Inf so snapshots stay JSON-encodable.
const Inf = 1e308

// Bucket is one cumulative histogram bucket, Prometheus-style.
type Bucket struct {
	// LE is the inclusive upper bound in seconds (Inf for the last).
	LE float64 `json:"le"`
	// Count is cumulative: observations at or below LE.
	Count int64 `json:"count"`
}

// Hist is a live, concurrency-safe latency histogram that buckets and
// sums integer nanoseconds, so bucket edges and sums are exact. The
// zero value is ready to use over LatencyBounds; NewHist takes others.
type Hist struct {
	mu      sync.Mutex
	le      []time.Duration // upper bounds; nil until first use means LatencyBounds
	count   int64
	sum     time.Duration
	buckets []int64 // len(le) + 1 for +Inf; non-cumulative
}

var latencyLE = durations(LatencyBounds)

// NewHist returns an empty histogram over bounds, ascending upper
// bounds in seconds followed by an implicit +Inf bucket.
func NewHist(bounds []float64) *Hist { return &Hist{le: durations(bounds)} }

// durations converts bounds in seconds to nanoseconds; for bounds of
// whole nanoseconds Snapshot's float64(le)/1e9 gives them back exactly.
func durations(bounds []float64) []time.Duration {
	le := make([]time.Duration, len(bounds))
	for i, b := range bounds {
		le[i] = time.Duration(math.Round(b * 1e9))
	}
	return le
}

// bounds returns the upper bounds, sizing the bucket counts on first
// use. Callers hold mu.
func (h *Hist) bounds() []time.Duration {
	if h.le == nil {
		h.le = latencyLE
	}
	if h.buckets == nil {
		h.buckets = make([]int64, len(h.le)+1)
	}
	return h.le
}

// Observe records one latency.
func (h *Hist) Observe(d time.Duration) {
	h.mu.Lock()
	i, _ := slices.BinarySearch(h.bounds(), d) // first bound >= d
	h.buckets[i]++
	h.count++
	h.sum += d
	h.mu.Unlock()
}

// Reset discards every observation.
func (h *Hist) Reset() {
	h.mu.Lock()
	h.count, h.sum = 0, 0
	clear(h.buckets)
	h.mu.Unlock()
}

// Snapshot returns a point-in-time copy with cumulative buckets.
func (h *Hist) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	le := h.bounds()
	s := HistSnapshot{Count: h.count, SumSeconds: float64(h.sum) / 1e9, Buckets: make([]Bucket, len(h.buckets))}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		s.Buckets[i] = Bucket{LE: Inf, Count: cum}
		if i < len(le) {
			s.Buckets[i].LE = float64(le[i]) / 1e9
		}
	}
	return s
}

// HistSnapshot is a serialized latency histogram: what shards report
// in /v1/cachestats and what the router merges fleet-wide.
type HistSnapshot struct {
	Count      int64    `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets,omitempty"`
}

// Merge folds other into s. Histograms over the same bounds merge
// bucket-by-bucket; mismatched bounds (a rolling-upgrade fleet) merge
// by the union of bounds, which loses no counts but may coarsen
// quantile interpolation.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	s.Count += other.Count
	s.SumSeconds += other.SumSeconds
	if len(other.Buckets) == 0 {
		return
	}
	if len(s.Buckets) == 0 {
		s.Buckets = append([]Bucket(nil), other.Buckets...)
		return
	}
	if sameBounds(s.Buckets, other.Buckets) {
		for i := range s.Buckets {
			s.Buckets[i].Count += other.Buckets[i].Count
		}
		return
	}
	s.Buckets = mergeBounds(s.Buckets, other.Buckets)
}

func sameBounds(a, b []Bucket) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LE != b[i].LE {
			return false
		}
	}
	return true
}

// mergeBounds merges two cumulative bucket sets over the union of
// their bounds. Each side's cumulative count at a foreign bound is its
// count at the nearest bound at or above it (an upper bound — safe for
// cumulative histograms).
func mergeBounds(a, b []Bucket) []Bucket {
	les := map[float64]bool{}
	for _, bk := range a {
		les[bk.LE] = true
	}
	for _, bk := range b {
		les[bk.LE] = true
	}
	bounds := make([]float64, 0, len(les))
	for le := range les {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	cumAt := func(set []Bucket, le float64) int64 {
		for _, bk := range set {
			if bk.LE >= le {
				return bk.Count
			}
		}
		if len(set) == 0 {
			return 0
		}
		return set[len(set)-1].Count
	}
	out := make([]Bucket, 0, len(bounds))
	for _, le := range bounds {
		out = append(out, Bucket{LE: le, Count: cumAt(a, le) + cumAt(b, le)})
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation within the bucket containing the target rank.
// Observations in the +Inf bucket are attributed to the last finite
// bound — a deliberate underestimate; the alternative (infinity)
// makes every downstream comparison meaningless.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var prevCum int64
	prevLE := 0.0
	lastFinite := 0.0
	for _, b := range s.Buckets {
		if b.LE < Inf {
			lastFinite = b.LE
		}
		if float64(b.Count) >= target && b.Count > prevCum {
			le := b.LE
			if le >= Inf {
				return lastFinite
			}
			frac := (target - float64(prevCum)) / float64(b.Count-prevCum)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return prevLE + frac*(le-prevLE)
		}
		if b.LE < Inf {
			prevLE = b.LE
		}
		prevCum = b.Count
	}
	return lastFinite
}

// round3 trims a float for JSON presentation (milliseconds with
// microsecond precision survive; the noise below that does not).
func round3(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}
