package obs

import (
	"math"
	"sort"
	"testing"
)

func TestQuantileEmpty(t *testing.T) {
	h := NewRegistry().Histogram("test.q")
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(p); got != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", p, got)
		}
	}
	var hs HistogramSnapshot
	if got := hs.Quantile(0.5); got != 0 {
		t.Errorf("empty snapshot Quantile(0.5) = %g, want 0", got)
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	h := NewRegistry().Histogram("test.q")
	h.Observe(42.5)
	for _, p := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(p); got != 42.5 {
			t.Errorf("Quantile(%g) = %g, want 42.5", p, got)
		}
	}
}

func TestQuantileClampedP(t *testing.T) {
	h := NewRegistry().Histogram("test.q")
	h.Observe(1)
	h.Observe(100)
	if got := h.Quantile(-3); got != 1 {
		t.Errorf("Quantile(-3) = %g, want min 1", got)
	}
	if got := h.Quantile(7); got != 100 {
		t.Errorf("Quantile(7) = %g, want max 100", got)
	}
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("Quantile(NaN) = %g, want 0", got)
	}
}

func TestQuantileCrossBucketInterpolation(t *testing.T) {
	// 10 observations in [1,2) and 10 in [2,4): the median sits exactly
	// at the bucket boundary, and the 75th percentile interpolates half
	// way into the second bucket.
	h := NewRegistry().Histogram("test.q")
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	// First bucket is clamped to [min=1.5, 2), second to [2, max=3].
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %g, want 2 (bucket boundary)", got)
	}
	want := 2 + 0.5*(3-2) // halfway through the clamped second bucket
	if got := h.Quantile(0.75); math.Abs(got-want) > 1e-12 {
		t.Errorf("Quantile(0.75) = %g, want %g", got, want)
	}
	// Quantiles are always inside [Min, Max].
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := h.Quantile(p)
		if q < h.Min() || q > h.Max() {
			t.Fatalf("Quantile(%g) = %g outside [%g, %g]", p, q, h.Min(), h.Max())
		}
	}
}

func TestQuantileMonotonicAndRoughlyAccurate(t *testing.T) {
	// A deterministic skewed sample: quantile estimates must be monotone
	// in p and each estimate must land within one power of two of the
	// exact sample quantile (the histogram's bucket resolution).
	h := NewRegistry().Histogram("test.q")
	var vals []float64
	x := 1.0
	for i := 0; i < 1000; i++ {
		v := math.Mod(x, 500) + 0.25
		vals = append(vals, v)
		h.Observe(v)
		x = x*1.3 + 1
	}
	sort.Float64s(vals)
	prev := math.Inf(-1)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		got := h.Quantile(p)
		if got < prev {
			t.Fatalf("Quantile(%g) = %g < previous %g: not monotone", p, got, prev)
		}
		prev = got
		exact := vals[int(p*float64(len(vals)-1))]
		if got < exact/2-1e-9 || got > exact*2+1e-9 {
			t.Errorf("Quantile(%g) = %g, exact sample quantile %g: off by more than one bucket", p, got, exact)
		}
	}
}

func TestQuantileZeroBucket(t *testing.T) {
	// Zero and negative observations collapse into bucket 0; with the
	// clamping they resolve to the observed extrema rather than the
	// bucket's degenerate [0,0) nominal range.
	h := NewRegistry().Histogram("test.q")
	h.Observe(0)
	h.Observe(0)
	h.Observe(0)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("all-zero Quantile(0.5) = %g, want 0", got)
	}
	h2 := NewRegistry().Histogram("test.q2")
	h2.Observe(-5)
	h2.Observe(-1)
	if got := h2.Quantile(1); got != -1 {
		t.Errorf("negative Quantile(1) = %g, want -1", got)
	}
	if got := h2.Quantile(0); got != -5 {
		t.Errorf("negative Quantile(0) = %g, want -5", got)
	}
}

func TestSnapshotQuantileMatchesHistogram(t *testing.T) {
	h := NewRegistry().Histogram("test.q")
	x := 3.7
	for i := 0; i < 500; i++ {
		h.Observe(math.Mod(x, 1000))
		x = x*1.7 + 0.1
	}
	hs := snapshotHistogram(h)
	if hs.Count != h.Count() {
		t.Fatalf("snapshot count %d != %d", hs.Count, h.Count())
	}
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 1} {
		if got, want := hs.Quantile(p), h.Quantile(p); got != want {
			t.Errorf("snapshot Quantile(%g) = %g, histogram says %g", p, got, want)
		}
	}
}
