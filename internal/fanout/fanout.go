// Package fanout is the one goroutine pool behind eX-IoT's batch work:
// generating a telescope hour, probing a scan batch, annotating it and
// training the forest each fan out over indices through Run. Callers
// write results by index, so their output is the same at any pool size.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Size is the number of goroutines Run(n, workers, …) uses: workers, or
// GOMAXPROCS when workers <= 0, clamped to n.
func Size(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Run calls fn(w, i) exactly once for each i in [0, n) and returns when
// every call has. At a Size of 1 or less the calls run serially, in index
// order, on the caller's goroutine with w = 0. Otherwise Size goroutines
// take the next index as they free up, and w < Size names the goroutine
// making the call so fn can own per-goroutine scratch.
func Run(n, workers int, fn func(w, i int)) {
	size := Size(n, workers)
	if size <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(size)
	for w := 0; w < size; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
