package cluster

// Request hedging. Tail latency in the cluster is dominated by a few
// slow links (a stalled shard, an injected partition, a GC pause), so
// after waiting one adaptive delay the router launches a second copy of
// a compile to the key's next ring successor and serves whichever
// answer lands first. Content addressing is what makes this safe: both
// shards compute the same bytes for the same key, so the race can only
// change who answers, never what the answer is. The delay adapts per
// shard — a high quantile of that shard's recently observed latencies —
// so hedges fire on genuine stragglers instead of doubling every
// request's load.

import (
	"context"
	"sync"
	"time"

	"rolag/internal/obs/fleet"
)

// Hedging constants (Config can override the clamps).
const (
	// hedgeQuantile is the per-shard latency quantile used as the
	// hedge delay.
	hedgeQuantile        = 0.95
	DefaultHedgeMinDelay = 2 * time.Millisecond
	DefaultHedgeMaxDelay = 250 * time.Millisecond

	// hedgeColdDelay is used until a shard has hedgeMinSamples observed
	// latencies; before that a quantile of noise would misfire.
	hedgeColdDelay  = 25 * time.Millisecond
	hedgeWindowSize = 256 // two generations of hedgeGenSize
	hedgeGenSize    = hedgeWindowSize / 2
	hedgeMinSamples = 16
)

// latWindow holds one shard's recent request latencies in two
// rotating histogram generations of hedgeGenSize observations:
// the filling one and the last full one, so quantile() always reads the
// straggler threshold out of the latest 128 to 256 requests.
type latWindow struct {
	mu  sync.Mutex
	gen [2]fleet.Hist
	n   int // total ever recorded; generation n/hedgeGenSize%2 is filling
}

func (w *latWindow) add(d time.Duration) {
	w.mu.Lock()
	g := &w.gen[w.n/hedgeGenSize%2]
	if w.n%hedgeGenSize == 0 {
		g.Reset() // the oldest generation makes room
	}
	g.Observe(d)
	w.n++
	w.mu.Unlock()
}

// quantile returns the q-quantile of the window, interpolated within
// its histogram bucket, or (0, false) while the window has fewer than
// hedgeMinSamples samples.
func (w *latWindow) quantile(q float64) (time.Duration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < hedgeMinSamples {
		return 0, false
	}
	s := w.gen[0].Snapshot()
	s.Merge(w.gen[1].Snapshot())
	return time.Duration(s.Quantile(q) * float64(time.Second)), true
}

// hedgeDelay is how long to wait on shard before launching the hedge:
// the shard's own high-quantile latency, clamped, or a fixed cold-start
// delay before enough samples exist.
func (rt *Router) hedgeDelay(shard string) time.Duration {
	d := hedgeColdDelay
	if w := rt.lat[shard]; w != nil {
		if q, ok := w.quantile(hedgeQuantile); ok {
			d = q
		}
	}
	if d < rt.hedgeMinDelay {
		d = rt.hedgeMinDelay
	}
	if d > rt.hedgeMaxDelay {
		d = rt.hedgeMaxDelay
	}
	return d
}

// forwardResult is one shard's answer to a forwarded request, tagged
// with the shard that produced it so the caller can mark failover by
// comparing against the key's home.
type forwardResult struct {
	shard     string
	status    int
	reply     []byte
	retryable bool
	err       error
	// raceFailed lists every shard that failed retryably inside a hedged
	// race (primary and/or secondary), so the caller's failover walk can
	// skip shards already known bad instead of retrying one as the next
	// primary. Empty for unhedged calls — res.shard identifies the
	// failure there.
	raceFailed []string
}

// forwardHedged forwards to primary and, if no answer lands within the
// adaptive delay, races a second copy against the key's next successor.
// The first usable (non-retryable) answer wins and the loser's request
// context is canceled. A retryable failure that arrives before the
// hedge fires returns immediately — the caller's serial failover loop
// is the right tool once the primary is known-bad, and it must not
// count as a hedge outcome.
func (rt *Router) forwardHedged(ctx context.Context, primary, secondary, path string, body []byte) forwardResult {
	if !rt.hedge || secondary == "" || secondary == primary {
		status, reply, retryable, err := rt.forwardCtx(ctx, primary, path, body)
		return forwardResult{shard: primary, status: status, reply: reply, retryable: retryable, err: err}
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // the loser's round trip dies with the winner's return

	// Buffered to the number of launches: a loser's send never blocks,
	// so its goroutine exits even though nobody reads the result.
	results := make(chan forwardResult, 2)
	launch := func(shard string) {
		status, reply, retryable, err := rt.forwardCtx(hctx, shard, path, body)
		results <- forwardResult{shard: shard, status: status, reply: reply, retryable: retryable, err: err}
	}
	go launch(primary)

	timer := time.NewTimer(rt.hedgeDelay(primary))
	defer timer.Stop()

	hedged := false
	pending := 1
	var lastFail forwardResult
	var raceFailed []string
	for {
		select {
		case res := <-results:
			pending--
			if res.err == nil && !res.retryable {
				if hedged {
					if res.shard == primary {
						rt.hedgePrimary.Add(1)
					} else {
						rt.hedgeWins.Add(1)
					}
				}
				return res
			}
			if !hedged {
				return res // pre-hedge failure: serial failover's turn
			}
			lastFail = res
			raceFailed = append(raceFailed, res.shard)
			if pending == 0 {
				rt.hedgeFailed.Add(1)
				lastFail.raceFailed = raceFailed
				return lastFail
			}
			// One of the racers failed; the other is still in flight.
		case <-timer.C:
			if !hedged {
				hedged = true
				pending++
				go launch(secondary)
			}
		}
	}
}

// HedgeTotals reports how hedged races resolved: primary won anyway,
// the hedge won, or both sides failed. Races never launched (the
// common case) are in none of the buckets.
func (rt *Router) HedgeTotals() (primary, hedge, failed int64) {
	return rt.hedgePrimary.Load(), rt.hedgeWins.Load(), rt.hedgeFailed.Load()
}
