package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunContract checks what every caller relies on: each index runs
// exactly once, every w is below Size, and at GOMAXPROCS 1 (workers 0)
// or at workers 1 the calls run in index order. The batch sizes cover
// empty, single, and more goroutines than indices (workers larger than
// the batch is clamped, as a scan batch smaller than GOMAXPROCS needs).
func TestRunContract(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, 1, 2, procs + 1, 1000} {
		for _, workers := range []int{0, 1, 2, 8, n + 3} {
			want := workers
			if workers <= 0 {
				want = procs
			}
			size := Size(n, workers)
			if size != min(want, n) {
				t.Fatalf("Size(%d, %d) = %d, want %d", n, workers, size, min(want, n))
			}
			counts := make([]atomic.Int32, n)
			var badW atomic.Int32
			Run(n, workers, func(w, i int) {
				if w < 0 || w >= size {
					badW.Add(1)
				}
				counts[i].Add(1)
			})
			if badW.Load() != 0 {
				t.Errorf("n=%d workers=%d: %d calls had w outside [0, %d)", n, workers, badW.Load(), size)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestRunSerialOrder checks the serial path at Size 1: GOMAXPROCS 1 with
// the default workers, and an explicit workers 1 at any GOMAXPROCS.
func TestRunSerialOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, workers := range []int{0, 1} {
		var order []int
		Run(1000, workers, func(w, i int) {
			if w != 0 {
				t.Fatalf("workers=%d: serial call %d on w=%d", workers, i, w)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: call %d ran index %d", workers, i, got)
			}
		}
		if len(order) != 1000 {
			t.Fatalf("workers=%d: %d calls, want 1000", workers, len(order))
		}
	}
}
