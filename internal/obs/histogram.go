package obs

import (
	"math"
	"sync/atomic"
)

// Histogram bucket layout: values are bucketed by the floor of their base-2
// logarithm. Exponents below histMinExp collapse into the first finite
// bucket and exponents at or above histMaxExp into the last; bucket 0 is
// reserved for zero and negative observations. The range 2^-30 .. 2^40
// covers everything the system observes — sub-nanosecond span fractions up
// to trillions — in 72 buckets.
const (
	histMinExp     = -30
	histMaxExp     = 40
	histNumBuckets = histMaxExp - histMinExp + 2 // + the zero/negative bucket
)

// Histogram is a fixed-layout log-scale histogram of float64 observations.
// Observe is lock-free; Sum, Min, and Max are maintained with CAS loops so
// concurrent writers never lose updates.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // math.Float64bits of the running min; valid when count > 0
	maxBits atomic.Uint64
	buckets [histNumBuckets]atomic.Int64
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	e := math.Ilogb(v)
	switch {
	case e < histMinExp:
		e = histMinExp
	case e > histMaxExp:
		e = histMaxExp
	}
	return e - histMinExp + 1
}

// bucketBounds returns the half-open value range [lo, hi) covered by bucket
// i. The bounds are kept finite so snapshots survive JSON encoding: bucket
// 0 (zero and negative observations) reports [0, 0), and the top bucket's
// upper bound is MaxFloat64 rather than +Inf.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	e := i - 1 + histMinExp
	lo = math.Ldexp(1, e)
	if i == histNumBuckets-1 {
		return lo, math.MaxFloat64
	}
	return lo, math.Ldexp(1, e+1)
}

// newHistogram returns a histogram with min/max primed to +/-Inf so the
// Observe CAS loops need no "unset" sentinel.
func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.count.Add(1)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the p-quantile (0 <= p <= 1) of the observations by
// linear interpolation inside the log-2 bucket holding the target rank.
// Bucket bounds are clamped to the observed Min and Max, so a histogram
// with a single observation reports that value for every p, and the open
// top bucket never inflates the estimate past the largest value actually
// seen. Returns 0 when the histogram is empty; p is clamped to [0, 1].
func (h *Histogram) Quantile(p float64) float64 {
	n := h.count.Load()
	if n == 0 || math.IsNaN(p) {
		return 0
	}
	counts := make([]int64, histNumBuckets)
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return quantileFromBuckets(p, n, h.Min(), h.Max(), func(i int) (lo, hi float64, c int64) {
		lo, hi = bucketBounds(i)
		return lo, hi, counts[i]
	}, histNumBuckets)
}

// quantileFromBuckets walks numBuckets buckets (via the accessor) in value
// order and interpolates the p-quantile of n observations whose global
// extrema are min and max. Shared by the live Histogram and the serialized
// HistogramSnapshot so both report identical percentiles.
func quantileFromBuckets(p float64, n int64, min, max float64, bucket func(i int) (lo, hi float64, c int64), numBuckets int) float64 {
	if p <= 0 {
		return min
	}
	if p >= 1 {
		return max
	}
	rank := p * float64(n) // target cumulative count, in (0, n)
	var cum int64
	for i := 0; i < numBuckets; i++ {
		lo, hi, c := bucket(i)
		if c == 0 {
			continue
		}
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		// Clamp the bucket's nominal bounds to the observed extrema:
		// the first and last non-empty buckets are only partially
		// covered, and bucket 0 (zero/negative observations) has the
		// degenerate nominal range [0, 0).
		if lo < min {
			lo = min
		}
		if hi > max {
			hi = max
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - float64(cum)) / float64(c)
		return lo + frac*(hi-lo)
	}
	return max
}
