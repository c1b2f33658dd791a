package obs

import "sync"

// FlightRecorder retains the K slowest request traces seen so far — a
// bounded flight log of the worst queries, each with its query text, phase
// breakdown, and per-request counters. It answers the question logs and
// aggregate histograms cannot: "what exactly were the slow requests doing".
//
// Record is cheap relative to the requests it records (one mutex hold and,
// for the common fast request, a single threshold comparison against the
// current K-th worst duration).
type FlightRecorder struct {
	mu     sync.Mutex
	max    int
	traces []TraceSnapshot // sorted by TotalSeconds, slowest first
}

// DefaultFlightRecorderSize is the trace retention bound used when a
// FlightRecorder is constructed with a non-positive capacity.
const DefaultFlightRecorderSize = 32

// NewFlightRecorder builds a recorder retaining the k slowest traces
// (DefaultFlightRecorderSize when k <= 0).
func NewFlightRecorder(k int) *FlightRecorder {
	if k <= 0 {
		k = DefaultFlightRecorderSize
	}
	return &FlightRecorder{max: k}
}

// Record offers a finished trace to the recorder and reports whether it was
// retained (it ranked among the K slowest seen so far). Nil traces are
// ignored.
func (f *FlightRecorder) Record(t *Trace) bool {
	if f == nil || t == nil {
		return false
	}
	total := t.Finish().Seconds()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.traces) == f.max && total <= f.traces[len(f.traces)-1].TotalSeconds {
		return false
	}
	snap := t.Snapshot()
	// Insert in descending-duration order; drop the fastest retained trace
	// when over capacity.
	i := len(f.traces)
	for i > 0 && f.traces[i-1].TotalSeconds < snap.TotalSeconds {
		i--
	}
	f.traces = append(f.traces, TraceSnapshot{})
	copy(f.traces[i+1:], f.traces[i:])
	f.traces[i] = snap
	if len(f.traces) > f.max {
		f.traces = f.traces[:f.max]
	}
	return true
}

// Slowest returns the retained traces, slowest first.
func (f *FlightRecorder) Slowest() []TraceSnapshot {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]TraceSnapshot(nil), f.traces...)
}
