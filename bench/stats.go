package main

import (
	"math"
	"sort"

	"sanity/internal/stats"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), which is
// how the driver measures a metric's spread. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// relRange is (max - min) / median.
func relRange(xs []float64) float64 {
	lo, hi := stats.MinMax(xs)
	return (hi - lo) / stats.Median(xs)
}
