package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is the request-scoped telemetry record of one query: its named
// phase spans (parse, plan, memo, emit, ...) plus a small bag of
// per-request counters. Traces complement the process-global Registry: the
// registry aggregates across requests, a Trace explains one. A trace made
// by Registry.NewTrace does both, feeding each span into the registry's
// timer of the same name as well.
//
// A Trace travels through the evaluation stack via context.Context
// (ContextWithTrace / TraceFrom). Every method is safe on a nil *Trace and
// does no work there, so instrumented code calls unconditionally and an
// untraced request pays only the context lookup — the disabled path takes
// no clock readings and allocates nothing.
//
// Traces are concurrency-safe: spans may be started and ended from the
// goroutines a request fans out to.
type Trace struct {
	id    uint64
	name  string
	start time.Time
	reg   *Registry // timers the spans also feed; nil for NewTrace

	spanSeq atomic.Uint64

	mu       sync.Mutex
	spans    []SpanRecord
	counters map[string]int64
	labels   map[string]string
	total    time.Duration
	finished bool
}

// traceEpoch distinguishes trace IDs across process restarts; traceSeq
// distinguishes them within a process.
var (
	traceEpoch = uint64(time.Now().UnixNano())
	traceSeq   atomic.Uint64
)

// NewTrace starts a trace for one request that feeds no registry. name is
// free-form display text (typically the query source) retained in
// snapshots and the slow-query flight recorder.
func NewTrace(name string) *Trace {
	return &Trace{
		id:    (traceEpoch << 20) | (traceSeq.Add(1) & 0xfffff),
		name:  name,
		start: time.Now(),
	}
}

// NewTrace starts a trace like the package-level NewTrace whose spans also
// feed r's timers, so each request stage gets a distribution across
// requests besides its place in this request's record.
func (r *Registry) NewTrace(name string) *Trace {
	t := NewTrace(name)
	t.reg = r
	return t
}

// IDString is the trace ID in the fixed-width hex form responses and logs
// carry.
func (t *Trace) IDString() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("%016x", t.id)
}

// SpanRecord is one completed span of a trace: its ID and its timing
// relative to the trace start.
type SpanRecord struct {
	SpanID   uint64        `json:"span_id"`
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"` // offset from trace start
	Duration time.Duration `json:"duration_ns"`
}

// StartSpan opens a phase span on the trace; when the trace was made by
// Registry.NewTrace the span also feeds that registry's timer of the same
// name. On a nil trace it returns an inert span without reading the clock.
func (t *Trace) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	s := Span{t: t, id: t.spanSeq.Add(1), name: name}
	if t.reg != nil {
		s.h = t.reg.timer(name)
	}
	s.start = time.Now()
	return s
}

// AddCounter accumulates a named per-request counter (embeddings enumerated,
// result nodes emitted, ...) onto the trace.
func (t *Trace) AddCounter(name string, n int64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]int64, 4)
	}
	t.counters[name] += n
	t.mu.Unlock()
}

// SetLabel attaches a string label (a dataset name, a tenant, a shed
// reason) to the trace; later values overwrite earlier ones. Labels ride
// along into snapshots, where the flight recorder's HTTP surface can filter
// on them. Keys and values are free-form display text, like the trace name.
func (t *Trace) SetLabel(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.labels == nil {
		t.labels = make(map[string]string, 2)
	}
	t.labels[key] = value
	t.mu.Unlock()
}

// Finish stamps the trace's total duration (first call wins) and returns it.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.finished {
		t.total = time.Since(t.start)
		t.finished = true
	}
	return t.total
}

// TraceSnapshot is the immutable, JSON-serializable form of a finished
// trace, as retained by the flight recorder and served at /debug/obs/slow.
type TraceSnapshot struct {
	TraceID      string            `json:"trace_id"`
	Name         string            `json:"name"`
	StartUnixNS  int64             `json:"start_unix_ns"`
	TotalSeconds float64           `json:"total_seconds"`
	Spans        []SpanRecord      `json:"spans,omitempty"`
	Counters     map[string]int64  `json:"counters,omitempty"`
	Labels       map[string]string `json:"labels,omitempty"`
}

// Snapshot freezes the trace. Unfinished traces report the time elapsed so
// far as their total.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.total
	if !t.finished {
		total = time.Since(t.start)
	}
	s := TraceSnapshot{
		TraceID:      fmt.Sprintf("%016x", t.id),
		Name:         t.name,
		StartUnixNS:  t.start.UnixNano(),
		TotalSeconds: total.Seconds(),
		Spans:        append([]SpanRecord(nil), t.spans...),
	}
	if len(t.counters) > 0 {
		s.Counters = make(map[string]int64, len(t.counters))
		for k, v := range t.counters {
			s.Counters[k] = v
		}
	}
	if len(t.labels) > 0 {
		s.Labels = make(map[string]string, len(t.labels))
		for k, v := range t.labels {
			s.Labels[k] = v
		}
	}
	return s
}

// traceKey is the context key Traces travel under.
type traceKey struct{}

// ContextWithTrace returns a context carrying t. A nil t returns ctx
// unchanged.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil when the request is
// untraced (including a nil ctx). All Trace methods accept the nil result,
// so callers need not branch.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
