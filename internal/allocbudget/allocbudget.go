// Package allocbudget holds an op's allocations per run under a fixed
// ceiling at GOMAXPROCS 1 and 4, for the packages' budget tests.
// Allocation counts do not depend on the machine, so unlike timings they
// can gate a plain test.
package allocbudget

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Check fails t when op allocates more than ceiling[0] times a run at
// GOMAXPROCS 1 or more than ceiling[1] at GOMAXPROCS 4, averaged over
// runs. testing.AllocsPerRun counts the whole process and pins
// GOMAXPROCS to 1, so op's first (warm-up) run raises it again before
// the counted runs. The race detector's sync.Pool drops items at
// random, which makes any count meaningless, so Check skips under -race.
func Check(t *testing.T, runs int, ceiling [2]float64, op func()) {
	t.Helper()
	SkipUnderRace(t)
	for i, procs := range [2]int{1, 4} {
		got := testing.AllocsPerRun(runs, func() {
			runtime.GOMAXPROCS(procs)
			op()
		})
		t.Logf("GOMAXPROCS %d: %.0f allocs/op, budget %.0f", procs, got, ceiling[i])
		if got > ceiling[i] {
			t.Errorf("GOMAXPROCS %d: %.0f allocs/op, over the budget of %.0f", procs, got, ceiling[i])
		}
	}
}

// SkipUnderRace skips t in a binary built with -race, where sync.Pool
// drops items at random, so no allocation count or byte total means
// anything.
func SkipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled() {
		t.Skip("sync.Pool drops items at random under -race")
	}
}

// raceEnabled reports whether the binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
