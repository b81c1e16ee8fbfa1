package main

import (
	"fmt"
	"sort"
)

// minBeyond is the sample rule every reported percentile obeys: a
// percentile is only as good as the number of samples above it, and
// fewer than ten makes it a statement about a handful of outliers.
const minBeyond = 10

// rank is the nearest-rank position (from 1) of the p-quantile among n
// samples, and whether at least minBeyond samples lie beyond it.
func rank(n int, p float64) (int, bool) {
	r := int(p*float64(n) + 0.999999) // ceil, tolerant of 0.9*100 = 90.00000000000001
	if r < 1 {
		r = 1
	}
	return r, n-r >= minBeyond
}

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule, and refuses when fewer than minBeyond samples lie
// beyond it — p90 needs 100 samples, p99 needs 1000.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", p)
	}
	r, ok := rank(n, p)
	if !ok {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, n-r, minBeyond)
	}
	return sorted[r-1], nil
}

// highestPercentile names the highest of p50/p90/p99/p99.9 that n
// samples support under the minBeyond rule (0 when even the median is
// unsupported).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.50, 0.90, 0.99, 0.999} {
		if _, ok := rank(n, p); ok {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method), which is what the acceptance rule for
// this benchmark is stated in. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
