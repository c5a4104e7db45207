package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as measured: fewer and the figure is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of values,
// which it sorts in place. Zero samples give NaN.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	rank := int(math.Ceil(q * float64(len(values))))
	if rank < 1 {
		rank = 1
	}
	return values[rank-1]
}

// beyond is the number of samples strictly past the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// supported reports whether n samples carry the q-quantile.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// highestSupported picks the highest of the usual percentiles that n
// samples carry; 0.5 when none of the tails do.
func highestSupported(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if supported(n, q) {
			return q
		}
	}
	return 0.5
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver uses for run-to-run spread. It needs two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / m)
}
