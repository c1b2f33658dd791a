package obs

import "time"

// Span is an in-flight measurement of one named phase. Registry.StartSpan,
// StartSpan and (*Trace).StartSpan open one; End observes the elapsed
// seconds into the phase's timer — the cumulative per-name duration
// histogram of the registry the span reports to — and, for a span opened
// on a trace, appends its SpanRecord to that trace. A zero Span is inert:
// End reads no clock and records nothing, so spans can be threaded through
// optionally instrumented paths.
type Span struct {
	h     *Histogram // the registry's timer for name; nil when no registry is fed
	t     *Trace     // the trace the span records onto; nil when untraced
	id    uint64
	name  string
	start time.Time
}

// StartSpan begins timing the named phase against registry r.
func (r *Registry) StartSpan(name string) Span {
	return Span{h: r.timer(name), start: time.Now()}
}

// StartSpan begins timing the named phase against the Default registry.
func StartSpan(name string) Span {
	return defaultRegistry.StartSpan(name)
}

// End finishes the span and returns the measured duration.
func (s Span) End() time.Duration {
	if s.h == nil && s.t == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.h != nil {
		s.h.Observe(d.Seconds())
	}
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, SpanRecord{
			SpanID:   s.id,
			Name:     s.name,
			Start:    s.start.Sub(s.t.start),
			Duration: d,
		})
		s.t.mu.Unlock()
	}
	return d
}
