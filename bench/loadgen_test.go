package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// The open loop times a request from when it was due, not from when it
// was sent: a stall in one request shows in the ones queued behind it,
// and in how late the generator ran.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	start := time.Now()
	// 100 a second, one at a time, one worker: request k is due at k*10ms.
	lat, lateMax := openLoop(start, 100, 1, 4, 1, func(_, k int) time.Time {
		if k == 0 {
			time.Sleep(stall)
		}
		return time.Now()
	})
	if len(lat) != 4 {
		t.Fatalf("%d latencies, want 4", len(lat))
	}
	if lat[0] < stall {
		t.Errorf("request 0 took %v, it slept %v", lat[0], stall)
	}
	// Request 1 was due 10 ms in and could not start before 60 ms: sent
	// at once it still reads at least 50 ms, though it did no work.
	for k, min := range []time.Duration{stall, stall - 10*time.Millisecond, stall - 20*time.Millisecond} {
		if lat[k] < min {
			t.Errorf("request %d reads %v from its due time, want at least %v", k, lat[k], min)
		}
	}
	if lateMax < stall-10*time.Millisecond {
		t.Errorf("generator lateness %v, want at least %v", lateMax, stall-10*time.Millisecond)
	}
}

func TestOpenLoopBurstsFallDueTogether(t *testing.T) {
	start := time.Now()
	var sent [6]time.Time
	// 100 a second in bursts of 3: requests 0-2 are due now, 3-5 at 30 ms.
	openLoop(start, 100, 3, 6, 2, func(_, k int) time.Time {
		sent[k] = time.Now()
		return sent[k]
	})
	for k := 3; k < 6; k++ {
		if since := sent[k].Sub(start); since < 30*time.Millisecond {
			t.Errorf("request %d was sent %v in, its burst is due at 30ms", k, since)
		}
	}
}

func TestClosedLoopCountsCompletions(t *testing.T) {
	var next atomic.Int64
	var calls atomic.Int64
	n := closedLoop(30*time.Millisecond, 2, &next, func(_, _ int) time.Time {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return time.Now()
	})
	if n == 0 || int64(n) != calls.Load() || next.Load() != int64(n) {
		t.Errorf("closedLoop returned %d for %d calls and %d indices", n, calls.Load(), next.Load())
	}
}
