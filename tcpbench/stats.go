package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks. +Inf entries (failed ops) sort last
// and propagate when the rank reaches them. It returns NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(sorted[hi], 1) {
		return sorted[hi]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPercentile returns the highest of the standard percentiles (99.99,
// 99.9, 99, 90, 50) that leaves at least ten samples beyond it in a sample
// of n, and the number of samples beyond it.
func tailPercentile(n int) (pct float64, beyond int) {
	for _, p := range []float64{99.99, 99.9, 99, 90, 50} {
		b := int(math.Floor(float64(n)*(100-p)/100 + 1e-6))
		if b >= 10 {
			return p, b
		}
	}
	return 50, n / 2
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
