package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile needs above it:
// with fewer, one outlier more or less moves the figure by a whole rank.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses a percentile with fewer than minBeyond samples beyond it, so a
// p99 needs at least 1000 samples and a p50 at least 20.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*p, minBeyond, max(n-rank, 0), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// minSamples is the smallest sample count percentile accepts for p.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median is the middle of xs (the mean of the two middle values for an
// even count). Used for repeated set-up timings, where every sample is a
// whole set-up and the percentile rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
