package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Windowed-histogram defaults: a 60-second sliding window resolved into
// twelve 5-second ring slots. Percentiles read from the merged window are
// therefore "the last ~60s", refreshed at 5s granularity.
const (
	DefaultWindow      = 60 * time.Second
	defaultWindowSlots = 12
)

// WindowedHistogram is a log-scale histogram of the recent past: a ring of
// fixed-duration slots, each an independent Histogram, with expired slots
// lazily recycled as the clock advances. Observe is as cheap as a plain
// Histogram.Observe plus one atomic period check; Merged folds the live
// slots into a single HistogramSnapshot, so p50/p99 over the window reuse
// the same quantile interpolation as cumulative histograms.
//
// Unlike the cumulative Histogram, a WindowedHistogram answers "what are
// users experiencing right now" rather than "what has this process ever
// seen" — the distinction the serving daemon's /metrics endpoint exists to
// surface.
type WindowedHistogram struct {
	slotDur int64 // nanoseconds per ring slot
	slots   []windowSlot

	// nowNanos is the clock, injectable by tests to drive slot rotation
	// deterministically; nil means time.Now().UnixNano.
	nowNanos func() int64
}

type windowSlot struct {
	mu     sync.Mutex
	period atomic.Int64              // slotDur-quantized timestamp this slot currently holds
	h      atomic.Pointer[Histogram] // observations of that period
	_      [5]uint64                 // keep neighboring slots off one cache line
}

// NewWindowedHistogram builds a windowed histogram covering the given span
// with the given ring resolution. window <= 0 selects DefaultWindow;
// slots <= 0 selects the default resolution.
func NewWindowedHistogram(window time.Duration, slots int) *WindowedHistogram {
	if window <= 0 {
		window = DefaultWindow
	}
	if slots <= 0 {
		slots = defaultWindowSlots
	}
	w := &WindowedHistogram{
		slotDur: int64(window) / int64(slots),
		slots:   make([]windowSlot, slots),
	}
	if w.slotDur <= 0 {
		w.slotDur = 1
	}
	for i := range w.slots {
		w.slots[i].period.Store(-1)
		w.slots[i].h.Store(newHistogram())
	}
	return w
}

// Window returns the time span the merged view covers.
func (w *WindowedHistogram) Window() time.Duration {
	return time.Duration(w.slotDur * int64(len(w.slots)))
}

func (w *WindowedHistogram) now() int64 {
	if w.nowNanos != nil {
		return w.nowNanos()
	}
	return time.Now().UnixNano()
}

// slotFor returns the ring slot for period p, recycled for p if it still
// holds an expired period. Rotation takes the slot mutex, but only on the
// first observation of each (slot, period) — at most once per slot duration.
func (w *WindowedHistogram) slotFor(p int64) *windowSlot {
	s := &w.slots[int(p%int64(len(w.slots)))]
	if s.period.Load() != p {
		s.mu.Lock()
		if s.period.Load() != p {
			s.h.Store(newHistogram())
			s.period.Store(p)
		}
		s.mu.Unlock()
	}
	return s
}

// Observe records one value into the current slot.
func (w *WindowedHistogram) Observe(v float64) {
	p := w.now() / w.slotDur
	w.slotFor(p).h.Load().Observe(v)
}

// Merged folds every slot still inside the window into one snapshot. Slots
// whose period has fallen out of the window are skipped (they are recycled
// lazily, on their next observation), so a burst followed by silence ages
// out of the merged view on schedule.
func (w *WindowedHistogram) Merged() HistogramSnapshot {
	now := w.now() / w.slotDur
	oldest := now - int64(len(w.slots)) + 1
	var counts [histNumBuckets]int64
	out := HistogramSnapshot{}
	first := true
	for i := range w.slots {
		s := &w.slots[i]
		p := s.period.Load()
		if p < oldest || p > now {
			continue
		}
		h := s.h.Load()
		n := h.Count()
		if n == 0 {
			continue
		}
		out.Count += n
		out.Sum += h.Sum()
		if mn := h.Min(); first || mn < out.Min {
			out.Min = mn
		}
		if mx := h.Max(); first || mx > out.Max {
			out.Max = mx
		}
		first = false
		for b := range h.buckets {
			counts[b] += h.buckets[b].Load()
		}
	}
	for i, n := range counts {
		if n == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		out.Buckets = append(out.Buckets, HistBucket{Lo: lo, Hi: hi, Count: n})
	}
	return out
}

// Windowed returns the windowed histogram with the given name, creating it
// on first use with the default 60-second window. Windowed histograms are a
// distinct metric kind ("windowed"): registering the same name as both a
// cumulative histogram and a windowed one is a kind collision.
func (r *Registry) Windowed(name string) *WindowedHistogram {
	r.mu.RLock()
	w, ok := r.windows[name]
	r.mu.RUnlock()
	if ok {
		return w
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok = r.windows[name]; ok {
		return w
	}
	r.noteMetric("windowed", name)
	w = NewWindowedHistogram(0, 0)
	r.windows[name] = w
	return w
}
