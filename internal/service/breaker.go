package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Breaker defaults.
const (
	// DefaultBreakerThreshold is how many consecutive failures of one
	// pass open its breaker.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is how long an open breaker refuses the
	// pass before letting a half-open probe through.
	DefaultBreakerCooldown = 30 * time.Second
)

// BreakerState is one circuit breaker's state.
type BreakerState string

const (
	// BreakerClosed: the pass runs normally.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: the pass is skipped without being attempted.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: one probe execution is in flight; its outcome
	// closes or re-opens the breaker.
	BreakerHalfOpen BreakerState = "half-open"
)

// BreakerInfo is a point-in-time snapshot of one pass's breaker,
// exported on /metrics and in MetricsSnapshot.
type BreakerInfo struct {
	Pass                string       `json:"pass"`
	State               BreakerState `json:"state"`
	ConsecutiveFailures int          `json:"consecutiveFailures"`
}

type breaker struct {
	failures  int
	openUntil time.Time
	open      bool
	probing   bool // a half-open probe is in flight
}

// breakerSet implements passes.Guard with one circuit breaker per pass
// name, shared by every compilation job in the engine. After threshold
// consecutive failures of a pass (across jobs) the breaker opens and
// the pass is skipped outright; after the cooldown a single half-open
// probe is admitted, and its outcome closes the breaker or re-arms the
// cooldown.
type breakerSet struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	opens atomic.Int64 // closed/half-open -> open transitions

	mu sync.Mutex
	m  map[string]*breaker
}

func newBreakerSet(threshold int, cooldown time.Duration) *breakerSet {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &breakerSet{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		m:         make(map[string]*breaker),
	}
}

// Allow implements passes.Guard.
func (bs *breakerSet) Allow(pass string) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[pass]
	if b == nil || !b.open {
		return true
	}
	if bs.now().Before(b.openUntil) {
		return false
	}
	// Cooldown expired: admit exactly one half-open probe; concurrent
	// jobs keep being refused until the probe reports.
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// Report implements passes.Guard.
func (bs *breakerSet) Report(pass string, ok bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[pass]
	if b == nil {
		b = &breaker{}
		bs.m[pass] = b
	}
	if ok {
		b.failures = 0
		b.open = false
		b.probing = false
		return
	}
	if b.open {
		// Failed half-open probe: re-arm the cooldown.
		b.probing = false
		b.openUntil = bs.now().Add(bs.cooldown)
		bs.opens.Add(1)
		return
	}
	b.failures++
	if b.failures >= bs.threshold {
		b.open = true
		b.probing = false
		b.openUntil = bs.now().Add(bs.cooldown)
		bs.opens.Add(1)
	}
}

// isOpen reports whether pass's breaker is currently refusing work
// (open and not yet probing).
func (bs *breakerSet) isOpen(pass string) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[pass]
	return b != nil && b.open && bs.now().Before(b.openUntil)
}

// infos returns per-pass snapshots sorted by pass name.
func (bs *breakerSet) infos() []BreakerInfo {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	out := make([]BreakerInfo, 0, len(bs.m))
	for pass, b := range bs.m {
		st := BreakerClosed
		if b.open {
			if b.probing || !bs.now().Before(b.openUntil) {
				st = BreakerHalfOpen
			} else {
				st = BreakerOpen
			}
		}
		out = append(out, BreakerInfo{Pass: pass, State: st, ConsecutiveFailures: b.failures})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pass < out[j].Pass })
	return out
}

// Breakers returns the engine's per-pass circuit-breaker snapshots.
func (e *Engine) Breakers() []BreakerInfo {
	return e.breakers.infos()
}

// Dark reports whether the engine's core optimization is breaker-dark:
// the "rolag" pass breaker is open, so compilations are being served
// but the technique the service exists for is skipped. rolagd's /readyz
// reports 503 in this state to steer traffic elsewhere.
func (e *Engine) Dark() bool {
	return e.breakers.isOpen("rolag")
}
