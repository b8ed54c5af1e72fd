package service

import (
	"context"
	"errors"
	"sync"
)

// flightGroup deduplicates concurrent compilations of the same cache
// key: the first caller (the leader) runs the compile, every concurrent
// caller with the same key waits for the leader's result instead of
// compiling again. Results are shared as immutable cache entries;
// errors are shared with the waiting callers of that flight but are
// never cached.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done  chan struct{}
	entry *entry
	err   error
}

// do runs fn under the key's flight. It returns the entry, the error,
// and whether this caller was the leader (ran fn itself). A follower
// whose ctx expires before the leader finishes returns ctx.Err(). A
// leader that fails only because its own ctx was canceled or timed out
// (a hedged request's losing leg, say) decides nothing for followers
// whose ctx is still live: they run the key again.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*entry, error)) (*entry, error, bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			if ctx.Err() == nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				return g.do(ctx, key, fn)
			}
			return f.entry, f.err, false
		case <-ctx.Done():
			return nil, ctx.Err(), false
		}
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.entry, f.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.entry, f.err, true
}
