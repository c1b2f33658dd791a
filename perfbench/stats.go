package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v. +Inf (a failed operation) sorts
// last, so it lands in the tail percentiles first.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// rank returns the sample at nearest rank ceil(p*n) of the ascending s; 0 for
// an empty s.
func rank(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p * float64(len(s))))
	k = min(max(k, 1), len(s))
	return s[k-1]
}

// median is the nearest-rank 50th percentile of v.
func median(v []float64) float64 { return rank(sorted(v), 0.5) }

// tailRank is the nearest rank of the highest percentile, at most the 99th,
// that leaves at least ten samples beyond it: ceil(0.99n) capped at n-10.
// It never drops below the median's rank, which a sample of fewer than 20
// cannot get past with ten samples to spare.
func tailRank(n int) int {
	return max(min(int(math.Ceil(0.99*float64(n))), n-10), int(math.Ceil(0.5*float64(n))))
}

// tail returns the sample at tailRank of the ascending s and the percentile
// it stands for.
func tail(s []float64) (v, pct float64) {
	if len(s) == 0 {
		return 0, 0
	}
	k := tailRank(len(s))
	return s[k-1], 100 * float64(k) / float64(len(s))
}

// finite clamps ±Inf and NaN, which JSON cannot carry, to the largest
// float64 of the same sign (NaN to 0). A failed operation enters a latency
// distribution as +Inf; if it reaches a reported percentile the metric reads
// as an absurdly large, still comparable number.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
