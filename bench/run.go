package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupRepeats is how often a run sets up: setup_s is the median, so one
// slow page-cache miss does not read as a regression.
const setupRepeats = 3

// instance is one workload, set up from a seed.
type instance interface {
	// measure runs the workload with production wiring and defaults for
	// about d and returns what a user of the system would see.
	measure(d time.Duration) (*observation, error)
	// traced spends about d on serial untraced runs, serial traced runs
	// and the isolated rungs. It returns the per-layer metrics it has
	// (the rest read 0: the layer did no work), the checks it made, and
	// the spans of its last traced run.
	traced(d time.Duration) (map[string]float64, *observation, []span, error)
	// close removes what setup left on disk.
	close() error
}

// setupFunc builds an instance; seed is the only input to generation and
// dir the only place it may write.
type setupFunc func(seed int64, dir string) (instance, error)

// observation is the outcome of one untraced measurement.
type observation struct {
	repeats int
	ops     float64   // operations over all repeats
	rates   []float64 // operations per second, one per repeat
	// latencies are in ms, pooled over repeats.
	latencies []float64

	mallocs, allocBytes uint64 // over the timed parts only
	liveHeapMB          float64

	checks
	digest string
}

// checks counts correctness checks; each failure is also kept as text.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.notes) < 12 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.notes = append(c.notes, o.notes...)
}

// endToEnd turns an observation into the end-to-end metrics.
func (o *observation) endToEnd(setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":            setupS,
		"ops_per_s":          median(o.rates),
		"latency_ms_p50":     percentile(o.latencies, 0.5),
		"latency_ms_p90":     percentile(o.latencies, 0.9),
		"allocs_per_op":      float64(o.mallocs) / o.ops,
		"alloc_bytes_per_op": float64(o.allocBytes) / o.ops,
		"live_heap_mb":       o.liveHeapMB,
	}
}

// memMark reads the allocator's counters; the difference of two marks is
// what the code between them allocated, on every goroutine.
type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc}
}

func (o *observation) addAllocs(from, to memMark) {
	o.mallocs += to.mallocs - from.mallocs
	o.allocBytes += to.bytes - from.bytes
}

// liveHeapMB forces a collection and reads the live heap. Callers keep
// what they want counted reachable across the call. It collects twice:
// what sits in a sync.Pool survives the first collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rungRounds is how often a rung repeats its pass; it reports the fastest.
// A pass is a few milliseconds long, and on a shared machine one in a few
// is stretched by something else: the fastest is the one nothing touched.
const rungRounds = 3

// timeEach runs fn over 0..n-1 rungRounds times and returns the mean
// duration of a call, in ns, in the fastest round.
func timeEach(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	best := time.Duration(1<<63 - 1)
	for round := 0; round < rungRounds; round++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		best = min(best, time.Since(start))
	}
	return float64(best) / float64(n)
}

// serialRuns is the traced half of a workload that drives a pipeline on
// one goroutine: run is called without a recorder and then with one, for
// a quarter of d each. The medians of the wall times give the serial
// baseline and what tracing costs; the unit and spans kept are those of
// the fastest traced run, the one the machine disturbed least, and every
// other unit is handed to drop.
func serialRuns[U any](d time.Duration, run func(*recorder) (U, time.Duration, error), drop func(U)) (plain, traced []float64, best U, rec *recorder, err error) {
	var bestWall time.Duration
	for _, withTrace := range []bool{false, true} {
		for start, n := time.Now(), 0; n == 0 || time.Since(start) < d/4; n++ {
			var r *recorder
			if withTrace {
				r = newRecorder(spanCapacity)
			}
			u, wall, err := run(r)
			if err != nil {
				return nil, nil, best, nil, err
			}
			switch {
			case !withTrace:
				plain = append(plain, wall.Seconds())
				drop(u)
			case rec != nil && bestWall <= wall:
				traced = append(traced, wall.Seconds())
				drop(u)
			default:
				traced = append(traced, wall.Seconds())
				if rec != nil {
					drop(best)
				}
				best, bestWall, rec = u, wall, r
			}
		}
	}
	return plain, traced, best, rec, nil
}
