package simnet

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestGenerateHourWorkersEquivalence locks in the determinism contract:
// the per-host runs fanned out on 2 and 8 workers (GOMAXPROCS) merge into
// a packet stream byte-identical to the serial one at GOMAXPROCS 1, for
// every hour of a simulated day.
func TestGenerateHourWorkersEquivalence(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.NumInfected = 60
	cfg.NumNonIoT = 15
	cfg.NumResearch = 3
	cfg.NumMisconfig = 10
	cfg.NumBackscat = 5
	cfg.MaxPacketsPerHostHour = 500
	w := NewWorld(cfg)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sawPackets := false
	for hi := 0; hi < 24; hi++ {
		hour := w.Start().Add(time.Duration(hi) * time.Hour)
		runtime.GOMAXPROCS(1)
		serial := w.GenerateHour(hour)
		if len(serial) > 0 {
			sawPackets = true
		}
		for _, procs := range []int{2, 8} {
			runtime.GOMAXPROCS(procs)
			parallel := w.GenerateHour(hour)
			if len(parallel) != len(serial) {
				t.Fatalf("hour %d GOMAXPROCS %d: %d packets, serial %d",
					hi, procs, len(parallel), len(serial))
			}
			if !reflect.DeepEqual(parallel, serial) {
				for i := range serial {
					if !reflect.DeepEqual(parallel[i], serial[i]) {
						t.Fatalf("hour %d GOMAXPROCS %d: packet %d differs:\n got  %+v\n want %+v",
							hi, procs, i, parallel[i], serial[i])
					}
				}
			}
		}
	}
	if !sawPackets {
		t.Fatal("no packets generated over the whole day")
	}
}

// TestGenerateHourDefaultsParallel checks GenerateHour is reproducible
// across repeated calls at GOMAXPROCS 4, and that those calls match the
// serial stream generated at GOMAXPROCS 1.
func TestGenerateHourDefaultsParallel(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.NumInfected = 30
	cfg.NumNonIoT = 8
	cfg.NumMisconfig = 5
	cfg.NumBackscat = 3
	w := NewWorld(cfg)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := w.GenerateHour(w.Start())
	b := w.GenerateHour(w.Start())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated GenerateHour calls differ")
	}
	runtime.GOMAXPROCS(1)
	serial := w.GenerateHour(w.Start())
	if !reflect.DeepEqual(a, serial) {
		t.Fatal("GenerateHour at GOMAXPROCS 4 differs from serial")
	}
}

// TestMergeRunsOrdering exercises the heap merge directly, including
// cross-run timestamp ties (resolved by run index) and empty runs.
func TestMergeRunsOrdering(t *testing.T) {
	if got := mergeRuns(nil); got != nil {
		t.Fatalf("mergeRuns(nil) = %v, want nil", got)
	}
	cfg := DefaultConfig(3)
	cfg.NumInfected = 20
	cfg.NumNonIoT = 5
	cfg.NumMisconfig = 4
	cfg.NumBackscat = 2
	w := NewWorld(cfg)
	out := w.GenerateHour(w.Start())
	for i := 1; i < len(out); i++ {
		if out[i].Timestamp.Before(out[i-1].Timestamp) {
			t.Fatalf("packet %d out of order: %v before %v",
				i, out[i].Timestamp, out[i-1].Timestamp)
		}
	}
}
