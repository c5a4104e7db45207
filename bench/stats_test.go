package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	values := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.05, 1}} {
		if got := percentile(values, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// A percentile is reported as measured only with ten samples beyond it.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{100, 0.9, 10, true},
		{99, 0.9, 9, false},
		{15000, 0.99, 150, true},
		{999, 0.99, 9, false},
		{36, 0.9, 3, false},
	} {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got := supported(c.n, c.q); got != c.ok {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{15000, 0.999}, {9000, 0.99}, {120, 0.9}, {99, 0.5}, {0, 0.5}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g, %g; Python gives 1.5, 12", q1, q3)
	}
	if got := spread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); got != 1 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}
