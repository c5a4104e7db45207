package telemetry

import (
	"math"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines and
// checks the total (run under -race in CI).
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_counter_total", "help")
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestGaugeConcurrent checks concurrent float adds sum exactly (each
// delta is a power of two, so float addition is associative here).
func TestGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "help")
	const workers, perWorker = 8, 4096
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*perWorker)*0.5; got != want {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge after Set = %v, want -3", got)
	}
}

// TestHistogramConcurrent checks counts, sum, and bucket placement under
// concurrent observation.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "help", []float64{1, 2, 4})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(0.5) // below first bound
				h.Observe(3)   // third bucket
				h.Observe(100) // +Inf bucket
			}
		}()
	}
	wg.Wait()
	n := int64(workers * perWorker)
	if got := h.Count(); got != 3*n {
		t.Fatalf("count = %d, want %d", got, 3*n)
	}
	if got, want := h.Sum(), float64(n)*(0.5+3+100); math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if got := h.counts[0].Load(); got != n {
		t.Fatalf("bucket le=1 = %d, want %d", got, n)
	}
	if got := h.counts[2].Load(); got != n {
		t.Fatalf("bucket le=4 = %d, want %d", got, n)
	}
	if got := h.counts[3].Load(); got != n {
		t.Fatalf("bucket +Inf = %d, want %d", got, n)
	}
}

// TestVecConcurrent creates series concurrently and checks get-or-create
// returns one shared handle per label set.
func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_vec_total", "help", "shard")
	labels := []string{"0", "1", "2", "3"}
	const workers, perWorker = 12, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v.With(labels[(w+i)%len(labels)]).Inc()
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for _, l := range labels {
		total += v.With(l).Value()
	}
	if total != workers*perWorker {
		t.Fatalf("series total = %d, want %d", total, workers*perWorker)
	}
}

// TestRegistryIdempotent checks get-or-create registration returns the
// same underlying metric across calls.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "help")
	b := r.Counter("same_total", "other help ignored")
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("re-registration did not return the same counter")
	}
	if n := len(r.Metrics()); n != 1 {
		t.Fatalf("families = %d, want 1", n)
	}
}

// TestRegistryTypeMismatchPanics checks the programming-error guard.
func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	r.Gauge("clash", "help")
}
