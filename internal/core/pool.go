package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ResolveWorkers maps a worker-count knob to an effective pool size:
// positive values are taken as-is, anything else means one worker per
// available CPU (GOMAXPROCS).
func ResolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelFor runs fn(i) for every i in [0, n) on a bounded worker
// pool and blocks until all calls return. Work is handed out through an
// atomic counter, so callers get dynamic load balancing; determinism is
// the caller's job (write results into a slice indexed by i and reduce
// in order). workers <= 0 means GOMAXPROCS; with one worker (or n <= 1)
// fn runs inline on the calling goroutine.
func ParallelFor(workers, n int, fn func(i int)) {
	workers = ResolveWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// chClosed is a non-blocking closed-channel probe; a nil channel (no
// cancellation wired) reads as open.
func chClosed(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// parallelRanges splits [0, n) into one contiguous range per worker and
// runs fn(w, lo, hi) for each; it blocks until all return. Used where
// each worker accumulates into private state indexed by w and the
// caller merges the parts in worker order, keeping results independent
// of scheduling.
func parallelRanges(workers, n int, fn func(w, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
