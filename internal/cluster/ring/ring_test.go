package ring

import (
	"fmt"
	"testing"
)

// keys returns n distinct synthetic cache keys.
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key-%d", i)
	}
	return out
}

func TestOwnerDeterministicAcrossRings(t *testing.T) {
	build := func() *Ring {
		r := New()
		// Insertion order must not matter: router and shards may list
		// peers in different orders.
		for _, s := range []string{"b", "a", "c"} {
			r.Add(s)
		}
		return r
	}
	r1, r2 := build(), build()
	for _, k := range keys(1000) {
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("rings disagree on owner of %q: %q vs %q", k, r1.Owner(k), r2.Owner(k))
		}
	}
}

// TestDistribution checks the satellite requirement: over 10k keys at
// 3 shards the per-shard share must stay within 15% of the even split.
func TestDistribution(t *testing.T) {
	r := New()
	shards := []string{"shard-a", "shard-b", "shard-c"}
	for _, s := range shards {
		r.Add(s)
	}
	const n = 10000
	counts := make(map[string]int)
	for _, k := range keys(n) {
		counts[r.Owner(k)]++
	}
	mean := float64(n) / float64(len(shards))
	for _, s := range shards {
		skew := (float64(counts[s]) - mean) / mean
		if skew < -0.15 || skew > 0.15 {
			t.Errorf("shard %s owns %d keys (skew %+.1f%%, want within ±15%% of %.0f)",
				s, counts[s], 100*skew, mean)
		}
	}
}

// TestJoinMovesOnlyGainedKeys checks minimal movement on join: every
// key that changes owner moves TO the new shard (no churn between
// survivors), and the moved fraction is near 1/(N+1).
func TestJoinMovesOnlyGainedKeys(t *testing.T) {
	const n = 10000
	ks := keys(n)
	r := New()
	for _, s := range []string{"a", "b", "c"} {
		r.Add(s)
	}
	before := make(map[string]string, n)
	for _, k := range ks {
		before[k] = r.Owner(k)
	}
	r.Add("d")
	moved := 0
	for _, k := range ks {
		after := r.Owner(k)
		if after != before[k] {
			moved++
			if after != "d" {
				t.Fatalf("key %q moved between survivors: %q -> %q", k, before[k], after)
			}
		}
	}
	// Expect ~n/4 moved; allow a factor-of-2 band either way so the
	// test pins "minimal movement" without being flaky about skew.
	if moved < n/8 || moved > n/2 {
		t.Errorf("join moved %d/%d keys, want roughly %d (1/4 of keyspace)", moved, n, n/4)
	}
}

// TestLeaveMovesOnlyOrphanedKeys is the inverse: removing a shard must
// reassign only that shard's keys.
func TestLeaveMovesOnlyOrphanedKeys(t *testing.T) {
	const n = 10000
	ks := keys(n)
	r := New()
	for _, s := range []string{"a", "b", "c"} {
		r.Add(s)
	}
	before := make(map[string]string, n)
	for _, k := range ks {
		before[k] = r.Owner(k)
	}
	r.Remove("b")
	for _, k := range ks {
		after := r.Owner(k)
		if before[k] != "b" && after != before[k] {
			t.Fatalf("key %q not owned by the removed shard moved: %q -> %q", k, before[k], after)
		}
		if after == "b" {
			t.Fatalf("key %q still owned by removed shard", k)
		}
	}
}

func TestSuccessorsDistinctAndOrdered(t *testing.T) {
	r := New()
	for _, s := range []string{"a", "b", "c"} {
		r.Add(s)
	}
	for _, k := range keys(200) {
		succ := r.Successors(k, 3)
		if len(succ) != 3 {
			t.Fatalf("want 3 successors, got %v", succ)
		}
		if succ[0] != r.Owner(k) {
			t.Fatalf("first successor %q is not the owner %q", succ[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("duplicate shard in successors: %v", succ)
			}
			seen[s] = true
		}
	}
	if got := r.Successors("k", 10); len(got) != 3 {
		t.Fatalf("n beyond membership not clamped: %v", got)
	}
}

func TestEmptyAndSingleRing(t *testing.T) {
	r := newRing(4)
	if r.Owner("k") != "" || r.Successors("k", 2) != nil {
		t.Fatal("empty ring must own nothing")
	}
	r.Add("only")
	r.Add("only") // duplicate add is a no-op
	if r.Len() != 1 {
		t.Fatalf("duplicate Add changed membership: %v", r.Shards())
	}
	for _, k := range keys(50) {
		if r.Owner(k) != "only" {
			t.Fatal("single-shard ring must own every key")
		}
	}
}
