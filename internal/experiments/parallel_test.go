package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestParallelMap: each result lands at its job's index although the
// jobs finish in a shuffled order, every job runs exactly once, and the
// error returned is the lowest failing index's whatever order the
// failures happen in.
func TestParallelMap(t *testing.T) {
	const n = 16
	// Job order[k] may finish only after job order[k-1] has: the
	// finishing order is a shuffle of the indices.
	order := rand.New(rand.NewSource(1)).Perm(n)
	rank := make([]int, n)
	done := make([]chan struct{}, n)
	for k, i := range order {
		rank[i] = k
	}
	var runs [n]atomic.Int32
	run := func(fail map[int]bool) ([]int, error) {
		for k := range done {
			done[k] = make(chan struct{})
		}
		for i := range runs {
			runs[i].Store(0)
		}
		return parallelMap(n, func(i int) (int, error) {
			runs[i].Add(1)
			if k := rank[i]; k > 0 {
				<-done[k-1]
			}
			defer close(done[rank[i]])
			if fail[i] {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return 10 * i, nil
		})
	}

	// Each job waits for the one before it in the shuffle, which would
	// deadlock unless every job has a worker of its own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))

	got, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 10*i {
			t.Errorf("result %d = %d, want %d", i, v, 10*i)
		}
	}
	for i := range runs {
		if c := runs[i].Load(); c != 1 {
			t.Errorf("job %d ran %d times, want once", i, c)
		}
	}

	// Fail three jobs; the one the shuffle finishes first is not the
	// lowest index.
	fail := map[int]bool{order[2]: true, order[5]: true, order[12]: true}
	lowest := n
	for i := range fail {
		lowest = min(lowest, i)
	}
	if lowest == order[2] {
		t.Fatalf("the first failure to finish, job %d, is the lowest: pick other jobs", lowest)
	}
	got, err = run(fail)
	if want := fmt.Sprintf("job %d failed", lowest); err == nil || err.Error() != want {
		t.Errorf("error = %v, want %q", err, want)
	}
	if got != nil {
		t.Errorf("results returned with an error: %v", got)
	}
	for i := range runs {
		if c := runs[i].Load(); c != 1 {
			t.Errorf("after a failure, job %d ran %d times, want once", i, c)
		}
	}
}
