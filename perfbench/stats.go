package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least a q share of the sample at or below it. It
// sorts xs in place and returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the middle of xs, averaging the two middle samples of an
// even-sized sample. NaN samples are skipped; it returns NaN when none is
// left. xs is not modified.
func median(xs []float64) float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a per-call figure over a window
// with no calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
