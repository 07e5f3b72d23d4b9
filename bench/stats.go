package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so a spread computed here equals the one the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
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
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// tailLadder lists, in per mille, the percentiles a report may quote
// beside a median.
var tailLadder = []int{750, 900, 950, 990, 999}

// rankOf is the nearest-rank index (1-based) of the pm-th per-mille
// point among n sorted samples, in integers: 0.9*100 is not 90 in
// floating point.
func rankOf(n, pm int) int {
	rank := (n*pm + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return rank
}

// tailPercentile picks the highest percentile of tailLadder that still
// has at least ten of n samples beyond it; ok is false when even the
// lowest rung has fewer.
func tailPercentile(n int) (pm int, ok bool) {
	for _, q := range tailLadder {
		if n-rankOf(n, q) >= 10 {
			pm, ok = q, true
		}
	}
	return pm, ok
}

// percentile is the nearest-rank pm-th per-mille point of xs.
func percentile(xs []float64, pm int) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[rankOf(len(s), pm)-1]
}

// mediansDisagree is the comparison rule of the A/A check and of any
// later A/B claim: two sets of runs disagree on a metric when their
// medians differ by more than bound, as a share of the smaller one.
func mediansDisagree(a, b []float64, bound float64) bool {
	ma, mb := median(a), median(b)
	lo, hi := math.Min(ma, mb), math.Max(ma, mb)
	if lo <= 0 {
		return hi > 0
	}
	return hi/lo-1 > bound
}
