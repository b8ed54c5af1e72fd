package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelMap runs job(0), ..., job(n-1) on runtime.GOMAXPROCS(0)
// goroutines and returns the results in index order. Every job runs
// exactly once, even after another has failed; the error returned is
// that of the lowest failing index, so neither the results nor the
// error depend on how the jobs were scheduled.
func parallelMap[T any](n int, job func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i], errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
