package service

import (
	"context"
	"testing"
	"time"
)

// TestFlightFollowerOutlivesCanceledLeader pins that a leader canceled
// by its own caller does not fail the followers waiting on its flight:
// a follower with a live ctx runs the key itself and gets its result.
func TestFlightFollowerOutlivesCanceledLeader(t *testing.T) {
	var g flightGroup
	lctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err, _ := g.do(lctx, "k", func() (*entry, error) {
			close(started)
			<-lctx.Done()
			return nil, lctx.Err()
		})
		leaderErr <- err
	}()
	<-started

	want := &entry{}
	type result struct {
		en     *entry
		err    error
		leader bool
	}
	got := make(chan result, 1)
	go func() {
		en, err, leader := g.do(context.Background(), "k", func() (*entry, error) { return want, nil })
		got <- result{en, err, leader}
	}()
	// Give the follower time to join the leader's flight before the
	// leader is canceled. The flight exposes no waiter count to wait on;
	// a follower that has not joined by then leads its own flight, so
	// the sleep can only weaken this check, never fail it.
	time.Sleep(20 * time.Millisecond)
	cancel()

	if err := <-leaderErr; err != context.Canceled {
		t.Fatalf("leader: %v, want context.Canceled", err)
	}
	r := <-got
	if r.err != nil || r.en != want || !r.leader {
		t.Fatalf("follower: entry %p err %v leader %v; want its own entry %p, no error, as leader", r.en, r.err, r.leader, want)
	}
}
