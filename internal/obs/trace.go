package obs

import (
	"context"
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
//
// A trace keeps its spans, counters and labels in small arrays inside the
// struct, so an ordinary request's trace allocates nothing for them; a
// list that outgrows its array moves to the heap. Traces come from a pool:
// the owner of a trace's last use hands it back with Release, and one never
// released is collected like any other value.
type Trace struct {
	id    uint64
	name  string
	start time.Time
	reg   *Registry // timers the spans also feed; nil for NewTrace

	spanSeq atomic.Uint64

	mu       sync.Mutex
	spans    []SpanRecord   // on spanBuf until it fills
	counters []traceCounter // on counterBuf until it fills
	labels   []traceLabel   // on labelBuf until it fills
	total    time.Duration
	finished bool

	spanBuf    [8]SpanRecord
	counterBuf [8]traceCounter
	labelBuf   [2]traceLabel
}

// traceCounter is one per-request counter of a trace.
type traceCounter struct {
	name string
	n    int64
}

// traceLabel is one label of a trace.
type traceLabel struct {
	key, value string
}

// pooledSpans bounds the span storage a released trace keeps for its next
// use. A live estimate records a plan, memo and emit span for the base and
// for each delta tier evaluation, so its trace outgrows spanBuf; keeping
// that slice spares the next such request the regrowth.
const pooledSpans = 128

// tracePool holds released traces for NewTrace to reuse.
var tracePool = sync.Pool{New: func() any {
	t := new(Trace)
	t.spans, t.counters, t.labels = t.spanBuf[:0], t.counterBuf[:0], t.labelBuf[:0]
	return t
}}

// traceSeqBits is the width of a trace ID's sequence number: IDs are unique
// for 2^40 traces within a process. The 24 bits above it hold the epoch.
const traceSeqBits = 40

// traceEpoch distinguishes trace IDs across process restarts: the top 24
// bits of a multiplicative hash of the start time, so every bit of the
// clock reading counts. traceSeq distinguishes them within a process.
var (
	traceEpoch = (uint64(time.Now().UnixNano()) * 0x9e3779b97f4a7c15) >> traceSeqBits
	traceSeq   atomic.Uint64
)

// NewTrace starts a trace for one request that feeds no registry. name is
// free-form display text (typically the query source) retained in
// snapshots and the slow-query flight recorder.
func NewTrace(name string) *Trace {
	t := tracePool.Get().(*Trace)
	t.id = traceEpoch<<traceSeqBits | traceSeq.Add(1)&(1<<traceSeqBits-1)
	t.name = name
	t.start = time.Now()
	return t
}

// Release returns t to the pool NewTrace draws from. Call it after the
// last use of t, once every span of it has ended and no goroutine will
// touch it again. Snapshots stay valid, since they share no storage with
// the trace; this is why the flight recorder keeps snapshots, never
// traces.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	t.name, t.reg = "", nil
	t.spanSeq.Store(0)
	t.spans = t.spans[:0]
	if cap(t.spans) > pooledSpans {
		t.spans = t.spanBuf[:0]
	}
	// Label values can be request text (a dataset parameter), which a
	// pooled trace should not keep alive.
	clear(t.labelBuf[:])
	t.counters, t.labels = t.counterBuf[:0], t.labelBuf[:0]
	t.total, t.finished = 0, false
	tracePool.Put(t)
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
	return idString(t.id)
}

// idString renders id as 16 lower-case hex digits.
func idString(id uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
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
	defer t.mu.Unlock()
	for i := range t.counters {
		if t.counters[i].name == name {
			t.counters[i].n += n
			return
		}
	}
	t.counters = append(t.counters, traceCounter{name, n})
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
	defer t.mu.Unlock()
	for i := range t.labels {
		if t.labels[i].key == key {
			t.labels[i].value = value
			return
		}
	}
	t.labels = append(t.labels, traceLabel{key, value})
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

// Snapshot freezes the trace into a copy that shares no storage with it,
// so the snapshot outlives Release. Unfinished traces report the time
// elapsed so far as their total.
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
		TraceID:      idString(t.id),
		Name:         t.name,
		StartUnixNS:  t.start.UnixNano(),
		TotalSeconds: total.Seconds(),
		Spans:        append([]SpanRecord(nil), t.spans...),
	}
	if len(t.counters) > 0 {
		s.Counters = make(map[string]int64, len(t.counters))
		for _, c := range t.counters {
			s.Counters[c.name] = c.n
		}
	}
	if len(t.labels) > 0 {
		s.Labels = make(map[string]string, len(t.labels))
		for _, l := range t.labels {
			s.Labels[l.key] = l.value
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
