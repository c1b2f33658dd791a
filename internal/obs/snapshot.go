package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"treesketch/internal/atomicfile"
)

// Snapshot is a point-in-time copy of every metric in a registry, in a form
// that serializes cleanly to JSON and round-trips back.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Timers     map[string]TimerSnapshot     `json:"timers,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Windows    map[string]WindowSnapshot    `json:"windows,omitempty"`
}

// WindowSnapshot is the exported state of one windowed histogram: the span
// the merged view covers plus the merged distribution itself.
type WindowSnapshot struct {
	WindowSeconds float64 `json:"window_seconds"`
	HistogramSnapshot
}

// TimerSnapshot is the exported state of one span timer: the histogram of
// every finished span of that name. Durations are in seconds so snapshots
// are unit-stable across tooling.
type TimerSnapshot struct {
	Count        int64        `json:"count"`
	TotalSeconds float64      `json:"total_seconds"`
	MinSeconds   float64      `json:"min_seconds"`
	MaxSeconds   float64      `json:"max_seconds"`
	Buckets      []HistBucket `json:"buckets,omitempty"`
}

// HistogramSnapshot is the exported state of one histogram: summary moments
// plus the non-empty log-scale buckets.
type HistogramSnapshot struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty histogram bucket covering [Lo, Hi).
type HistBucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int64   `json:"count"`
}

// Quantile estimates the p-quantile of the snapshotted distribution with
// the same interpolation as Histogram.Quantile, so percentiles can be
// recomputed from serialized snapshots (e.g. a benchmark baseline file)
// without the live histogram.
func (hs HistogramSnapshot) Quantile(p float64) float64 {
	if hs.Count == 0 || math.IsNaN(p) {
		return 0
	}
	return quantileFromBuckets(p, hs.Count, hs.Min, hs.Max, func(i int) (lo, hi float64, c int64) {
		b := hs.Buckets[i]
		return b.Lo, b.Hi, b.Count
	}, len(hs.Buckets))
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.timers) > 0 {
		s.Timers = make(map[string]TimerSnapshot, len(r.timers))
		for n, h := range r.timers {
			hs := snapshotHistogram(h)
			s.Timers[n] = TimerSnapshot{
				Count:        hs.Count,
				TotalSeconds: hs.Sum,
				MinSeconds:   hs.Min,
				MaxSeconds:   hs.Max,
				Buckets:      hs.Buckets,
			}
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for n, h := range r.histograms {
			s.Histograms[n] = snapshotHistogram(h)
		}
	}
	if len(r.windows) > 0 {
		s.Windows = make(map[string]WindowSnapshot, len(r.windows))
		for n, w := range r.windows {
			s.Windows[n] = WindowSnapshot{
				WindowSeconds:     w.Window().Seconds(),
				HistogramSnapshot: w.Merged(),
			}
		}
	}
	return s
}

func snapshotHistogram(h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		hs.Buckets = append(hs.Buckets, HistBucket{Lo: lo, Hi: hi, Count: n})
	}
	return hs
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteJSONFile writes the registry snapshot to the file at path. The write
// is atomic (see atomicfile.Write), so a crash mid-write can never leave a
// truncated sidecar next to otherwise-valid outputs.
func (r *Registry) WriteJSONFile(path string) error {
	if err := atomicfile.Write(path, r.WriteJSON); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

// WriteText writes the snapshot in an expvar-style flat text form, one
// "name value" pair per line with sub-fields dotted onto the metric name,
// sorted by name. Convenient for diffing runs and for grep.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	for _, n := range sortedNames(s.Counters) {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	for _, n := range sortedNames(s.Gauges) {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	for _, n := range sortedNames(s.Timers) {
		t := s.Timers[n]
		if _, err := fmt.Fprintf(w, "%s.count %d\n%s.total_seconds %g\n%s.min_seconds %g\n%s.max_seconds %g\n",
			n, t.Count, n, t.TotalSeconds, n, t.MinSeconds, n, t.MaxSeconds); err != nil {
			return err
		}
	}
	for _, n := range sortedNames(s.Histograms) {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "%s.count %d\n%s.sum %g\n%s.min %g\n%s.max %g\n",
			n, h.Count, n, h.Sum, n, h.Min, n, h.Max); err != nil {
			return err
		}
	}
	for _, n := range sortedNames(s.Windows) {
		ws := s.Windows[n]
		if _, err := fmt.Fprintf(w, "%s.window_seconds %g\n%s.count %d\n%s.p50 %g\n%s.p99 %g\n",
			n, ws.WindowSeconds, n, ws.Count, n, ws.Quantile(0.50), n, ws.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}
