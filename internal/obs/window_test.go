package obs

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives a WindowedHistogram's rotation deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now int64
}

func (c *fakeClock) nanos() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += int64(d)
	c.mu.Unlock()
}

// windowed builds a histogram with a 10s window in 5 slots (2s each) on a
// fake clock started inside the first period.
func windowed(t *testing.T) (*WindowedHistogram, *fakeClock) {
	t.Helper()
	clk := &fakeClock{now: int64(time.Hour)}
	w := NewWindowedHistogram(10*time.Second, 5)
	w.nowNanos = clk.nanos
	if got := w.Window(); got != 10*time.Second {
		t.Fatalf("Window() = %v, want 10s", got)
	}
	return w, clk
}

func TestWindowedMergesLiveSlots(t *testing.T) {
	w, clk := windowed(t)
	w.Observe(1)
	clk.advance(2 * time.Second) // next slot
	w.Observe(2)
	clk.advance(2 * time.Second)
	w.Observe(4)

	m := w.Merged()
	if m.Count != 3 {
		t.Fatalf("merged count = %d, want 3", m.Count)
	}
	if m.Sum != 7 || m.Min != 1 || m.Max != 4 {
		t.Errorf("merged sum/min/max = %v/%v/%v, want 7/1/4", m.Sum, m.Min, m.Max)
	}
	if q := w.Merged().Quantile(1); q != 4 {
		t.Errorf("p100 = %v, want 4", q)
	}
}

// TestWindowedExpiry pins the headline behavior: observations age out of the
// merged view once the window slides past them, even with no new traffic to
// recycle their slots.
func TestWindowedExpiry(t *testing.T) {
	w, clk := windowed(t)
	for i := 0; i < 100; i++ {
		w.Observe(0.5)
	}
	if m := w.Merged(); m.Count != 100 {
		t.Fatalf("burst count = %d, want 100", m.Count)
	}

	// One slot short of expiry: the burst is still visible.
	clk.advance(8 * time.Second)
	if m := w.Merged(); m.Count != 100 {
		t.Errorf("count after 8s = %d, want 100 (still inside the window)", m.Count)
	}

	// Past the window: silence, with the slot recycled only lazily.
	clk.advance(4 * time.Second)
	if m := w.Merged(); m.Count != 0 {
		t.Errorf("count after expiry = %d, want 0", m.Count)
	}
	if q := w.Merged().Quantile(0.99); q != 0 {
		t.Errorf("p99 of an expired window = %v, want 0", q)
	}
}

// TestWindowedSlotRecycle drives the clock a full lap around the ring so a
// slot is reused for a new period: the old period's observations must not
// leak into the new one.
func TestWindowedSlotRecycle(t *testing.T) {
	w, clk := windowed(t)
	w.Observe(100)
	clk.advance(10 * time.Second) // exactly one lap: same slot, new period
	w.Observe(1)
	m := w.Merged()
	if m.Count != 1 || m.Max != 1 {
		t.Errorf("after recycle count/max = %d/%v, want 1/1", m.Count, m.Max)
	}
}

// TestWindowedBoundary observes on both sides of a slot boundary and checks
// each lands in its own slot (rotation happens on the first observation of
// the new period, not a timer).
func TestWindowedBoundary(t *testing.T) {
	clk := &fakeClock{now: int64(2*time.Second) - 1} // last nanosecond of period 0
	w := NewWindowedHistogram(10*time.Second, 5)
	w.nowNanos = clk.nanos
	w.Observe(1)
	clk.advance(1) // first nanosecond of period 1
	w.Observe(2)
	if m := w.Merged(); m.Count != 2 {
		t.Fatalf("both sides of the boundary should be live, got count %d", m.Count)
	}
	live := 0
	for i := range w.slots {
		if w.slots[i].h.Load().Count() > 0 {
			live++
		}
	}
	if live != 2 {
		t.Errorf("observations landed in %d slots, want 2", live)
	}
}

func TestWindowedDefaults(t *testing.T) {
	w := NewWindowedHistogram(0, 0)
	if got := w.Window(); got != DefaultWindow {
		t.Errorf("default window = %v, want %v", got, DefaultWindow)
	}
	if m := w.Merged(); m.Count != 0 {
		t.Errorf("empty merged count = %d", m.Count)
	}
	if q := w.Merged().Quantile(0.5); q != 0 {
		t.Errorf("empty p50 = %v, want 0", q)
	}
}

func TestRegistryWindowed(t *testing.T) {
	r := NewRegistry()
	w1 := r.Windowed("serve.request.latency_seconds")
	w2 := r.Windowed("serve.request.latency_seconds")
	if w1 != w2 {
		t.Error("same name should return the same windowed histogram")
	}
	if errs := r.NameErrors(); len(errs) != 0 {
		t.Fatalf("unexpected name errors: %v", errs)
	}
	// A windowed histogram and a cumulative one are different kinds.
	r.Histogram("serve.request.latency_seconds")
	if errs := r.NameErrors(); len(errs) != 1 {
		t.Fatalf("want 1 kind-collision error, got %v", errs)
	}
	// Windowed names go through the grammar like any registration.
	r2 := NewRegistry()
	r2.Windowed("Bad.Name")
	if errs := r2.NameErrors(); len(errs) != 1 {
		t.Fatalf("want 1 grammar error, got %v", errs)
	}
}

// TestWindowedConcurrent hammers Observe from several goroutines while the
// clock advances across slot boundaries and readers merge, for the race
// detector's benefit.
func TestWindowedConcurrent(t *testing.T) {
	w, clk := windowed(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5000; j++ {
				w.Observe(0.001)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			clk.advance(150 * time.Millisecond)
			w.Merged()
			w.Merged().Quantile(0.99)
		}
	}()
	wg.Wait()
	// The clock stopped 7.5s in — under one window minus a slot — so every
	// period observed is still inside the window: nothing may have been lost.
	if m := w.Merged(); m.Count != 20000 {
		t.Errorf("merged count = %d, want 20000", m.Count)
	}
}

// TestHistogramObserveVsSnapshot pins that a cumulative histogram can be
// snapshotted while writers are active (the bench harness and the /metrics
// handler both do this).
func TestHistogramObserveVsSnapshot(t *testing.T) {
	h := newHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5000; j++ {
				h.Observe(1.5)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s := snapshotHistogram(h)
		if s.Count < 0 {
			t.Errorf("negative count %d", s.Count)
		}
		h.Quantile(0.99)
	}
	wg.Wait()
	s := snapshotHistogram(h)
	if s.Count != 20000 || s.Min != 1.5 || s.Max != 1.5 {
		t.Errorf("final snapshot = %+v", s)
	}
}
