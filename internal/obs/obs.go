// Package obs is the observability substrate of the TreeSketch system: a
// dependency-free, concurrency-safe registry of named counters, gauges,
// log-scale histograms, and span timers, with JSON and expvar-style text
// snapshot export plus runtime/pprof profiling helpers.
//
// Metric names follow the convention "pkg.subsystem.name" (for example
// "tsbuild.heap.pushes" or "eval.approx.embeddings"). Instrumented code
// either uses the process-wide Default registry or accepts an injected
// *Registry (nil always means Default, via Or), so tests and servers can
// isolate their measurements while CLIs share one snapshot.
//
// All metric operations are lock-free atomic updates; looking a metric up
// by name takes a read lock and should be done once, outside hot loops,
// with the returned pointer cached.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"treesketch/internal/metricname"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry (or use Default).
//
// Metric names are validated at registration time against the shared
// metricname grammar — the same rule the tslint `metricname` analyzer
// enforces statically on constant registration sites. Registration never
// fails (hot paths must not grow error branches), but grammar violations
// and kind collisions are recorded as typed errors retrievable through
// NameErrors, so tests and health checks can assert a clean registry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	timers     map[string]*Histogram // span durations in seconds, by span name
	windows    map[string]*WindowedHistogram

	kinds    map[string]string // name -> kind of first registration
	nameErrs []error
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		timers:     make(map[string]*Histogram),
		windows:    make(map[string]*WindowedHistogram),
		kinds:      make(map[string]string),
	}
}

// NameError records a metric registered under a name that violates the
// metricname grammar. The metric still works; the error is diagnostic.
type NameError struct {
	Kind string // "counter", "gauge", "histogram", or "timer"
	Name string
	Err  error // the grammar violation from metricname.Valid
}

func (e *NameError) Error() string {
	return fmt.Sprintf("obs: %s registered with invalid name: %v", e.Kind, e.Err)
}

func (e *NameError) Unwrap() error { return e.Err }

// DuplicateMetricError records one name registered as two different metric
// kinds (e.g. a counter and a gauge). Both metrics exist — the registry
// keeps kinds in separate maps — but their snapshots would collide, so the
// collision is surfaced as a typed error.
type DuplicateMetricError struct {
	Name     string
	Kind     string // kind of the later registration
	PrevKind string // kind of the first registration
}

func (e *DuplicateMetricError) Error() string {
	return fmt.Sprintf("obs: metric %q registered as both %s and %s", e.Name, e.PrevKind, e.Kind)
}

// noteMetric validates a first-time registration and records the name's
// kind. Callers hold r.mu; it runs once per name, never on the hot path.
func (r *Registry) noteMetric(kind, name string) {
	if err := metricname.Valid(name); err != nil {
		r.nameErrs = append(r.nameErrs, &NameError{Kind: kind, Name: name, Err: err})
	}
	if prev, ok := r.kinds[name]; ok {
		if prev != kind {
			r.nameErrs = append(r.nameErrs, &DuplicateMetricError{Name: name, Kind: kind, PrevKind: prev})
		}
		return
	}
	r.kinds[name] = kind
}

// NameErrors returns the registration problems recorded so far: one
// *NameError per grammar-violating name and one *DuplicateMetricError per
// cross-kind name collision, in registration order.
func (r *Registry) NameErrors() []error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]error(nil), r.nameErrs...)
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry shared by instrumented packages
// that were not handed an explicit one.
func Default() *Registry { return defaultRegistry }

// Or returns r when non-nil and the Default registry otherwise; it is the
// injection point used by Options structs throughout the system.
func Or(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return defaultRegistry
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	r.noteMetric("counter", name)
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	r.noteMetric("gauge", name)
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram with the given name, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	r.noteMetric("histogram", name)
	h = newHistogram()
	r.histograms[name] = h
	return h
}

// timer returns the duration histogram the spans of the given name feed,
// creating it on first use.
func (r *Registry) timer(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.timers[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.timers[name]; ok {
		return h
	}
	r.noteMetric("timer", name)
	h = newHistogram()
	r.timers[name] = h
	return h
}

// Reset removes every metric from the registry. Meant for tests and for
// CLIs that take several independent snapshots in one process.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.histograms = make(map[string]*Histogram)
	r.timers = make(map[string]*Histogram)
	r.windows = make(map[string]*WindowedHistogram)
	r.kinds = make(map[string]string)
	r.nameErrs = nil
}

// sortedNames returns the keys of a metric map in lexical order; snapshots
// and text export iterate deterministically.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can move in both directions or track a
// maximum.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v when v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }
