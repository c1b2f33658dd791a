package obs

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceSpans pins a trace made by NewTrace: its spans append their
// records and counters to the trace and feed no registry.
func TestTraceSpans(t *testing.T) {
	before := Default().Snapshot().Timers
	tr := NewTrace("//item[//keyword]")
	if got := tr.IDString(); len(got) != 16 {
		t.Fatalf("IDString %q: want 16 hex chars", got)
	}

	parse := tr.StartSpan("test.trace.parse")
	parse.End()
	plan := tr.StartSpan("test.trace.plan")
	plan.End()
	tr.AddCounter("embeddings", 7)
	tr.AddCounter("embeddings", 3)
	tr.AddCounter("nothing", 0) // zero increments are dropped
	tr.Finish()

	s := tr.Snapshot()
	if s.Name != "//item[//keyword]" {
		t.Errorf("snapshot name = %q", s.Name)
	}
	if len(s.Spans) != 2 || s.Spans[0].Name != "test.trace.parse" || s.Spans[1].Name != "test.trace.plan" {
		t.Fatalf("spans = %+v, want parse then plan", s.Spans)
	}
	if s.Counters["embeddings"] != 10 {
		t.Errorf("counter = %d, want 10", s.Counters["embeddings"])
	}
	if _, ok := s.Counters["nothing"]; ok {
		t.Error("zero-increment counter should not be recorded")
	}
	if s.TotalSeconds <= 0 {
		t.Errorf("total = %v, want > 0", s.TotalSeconds)
	}
	if after := Default().Snapshot().Timers; !reflect.DeepEqual(after, before) {
		t.Errorf("spans of a NewTrace trace changed the default registry's timers")
	}

	// Snapshots must serialize: the flight recorder ships them as JSON.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot marshal: %v", err)
	}
}

// TestRegistryTrace pins a trace made by Registry.NewTrace: each span both
// appends its record to the trace and feeds the registry's timer of its
// name with the same duration.
func TestRegistryTrace(t *testing.T) {
	r := NewRegistry()
	tr := r.NewTrace("q")
	d := tr.StartSpan("eval.memo").End()
	spans := tr.Snapshot().Spans
	if len(spans) != 1 || spans[0].Name != "eval.memo" || spans[0].Duration != d {
		t.Fatalf("trace spans = %+v, want one eval.memo of %v", spans, d)
	}
	ts, ok := r.Snapshot().Timers["eval.memo"]
	if !ok || ts.Count != 1 || ts.TotalSeconds != d.Seconds() || len(ts.Buckets) != 1 {
		t.Fatalf("registry timer = %+v (present %v), want one observation of %v", ts, ok, d)
	}
}

func TestTraceFinishFirstCallWins(t *testing.T) {
	tr := NewTrace("q")
	first := tr.Finish()
	time.Sleep(time.Millisecond)
	if second := tr.Finish(); second != first {
		t.Errorf("second Finish = %v, want the first call's %v", second, first)
	}
}

// TestTraceNil pins the disabled path: every method of a nil *Trace (and of
// the inert spans it hands out) is a no-op, so instrumented code never
// branches on "is tracing on".
func TestTraceNil(t *testing.T) {
	var tr *Trace
	if tr.IDString() != "" {
		t.Error("nil trace should have zero ID")
	}
	sp := tr.StartSpan("eval.plan")
	if sp.End() != 0 {
		t.Error("inert span End should return 0")
	}
	tr.AddCounter("x", 1)
	if tr.Finish() != 0 {
		t.Error("nil Finish should return 0")
	}
	if s := tr.Snapshot(); s.TraceID != "" || len(s.Spans) != 0 {
		t.Errorf("nil snapshot = %+v, want zero value", s)
	}
}

func TestTraceContext(t *testing.T) {
	if TraceFrom(nil) != nil {
		t.Error("TraceFrom(nil ctx) should be nil")
	}
	if TraceFrom(context.Background()) != nil {
		t.Error("TraceFrom on a bare context should be nil")
	}
	tr := NewTrace("q")
	ctx := ContextWithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Errorf("TraceFrom = %p, want %p", got, tr)
	}
	// Attaching a nil trace leaves the context untouched.
	base := context.Background()
	if got := ContextWithTrace(base, nil); got != base {
		t.Error("ContextWithTrace(nil) should return the context unchanged")
	}
}

func TestTraceIDsDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		id := NewTrace("q").id
		if seen[id] {
			t.Fatalf("duplicate trace ID %x", id)
		}
		seen[id] = true
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("q")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := tr.StartSpan("eval.memo")
				tr.AddCounter("work", 1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	s := tr.Snapshot()
	if len(s.Spans) != 800 {
		t.Errorf("got %d spans, want 800", len(s.Spans))
	}
	if s.Counters["work"] != 800 {
		t.Errorf("counter = %d, want 800", s.Counters["work"])
	}
	ids := make(map[uint64]bool)
	for _, sp := range s.Spans {
		if ids[sp.SpanID] {
			t.Fatalf("duplicate span ID %d", sp.SpanID)
		}
		ids[sp.SpanID] = true
	}
}

// finishedTrace fabricates a trace whose total is already stamped, so flight
// recorder ordering tests are deterministic.
func finishedTrace(name string, total time.Duration) *Trace {
	tr := NewTrace(name)
	tr.total = total
	tr.finished = true
	return tr
}

func TestFlightRecorderKeepsSlowest(t *testing.T) {
	rec := NewFlightRecorder(3)
	durations := []time.Duration{
		5 * time.Millisecond, 50 * time.Millisecond, 10 * time.Millisecond,
		100 * time.Millisecond, 20 * time.Millisecond,
	}
	for i, d := range durations {
		retained := rec.Record(finishedTrace(strings.Repeat("q", i+1), d))
		// Only the 20ms trace arrives after capacity fills with strictly
		// slower entries (100, 50, 10) — it evicts the 10ms one.
		if !retained {
			t.Errorf("trace %d (%v) should have been retained", i, d)
		}
	}
	// A trace faster than the current floor is rejected outright.
	if rec.Record(finishedTrace("fast", time.Millisecond)) {
		t.Error("1ms trace should not displace the retained set")
	}
	got := rec.Slowest()
	if len(got) != 3 {
		t.Fatalf("retained %d traces, want 3", len(got))
	}
	wantOrder := []float64{0.1, 0.05, 0.02}
	for i, snap := range got {
		if snap.TotalSeconds != wantOrder[i] {
			t.Errorf("slot %d = %gs, want %gs", i, snap.TotalSeconds, wantOrder[i])
		}
	}
}

func TestFlightRecorderNilSafety(t *testing.T) {
	var rec *FlightRecorder
	if rec.Record(finishedTrace("q", time.Second)) {
		t.Error("nil recorder should not retain")
	}
	if rec.Slowest() != nil {
		t.Error("nil recorder should report empty state")
	}
	live := NewFlightRecorder(2)
	if live.Record(nil) {
		t.Error("nil trace should not be retained")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	rec := NewFlightRecorder(8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				rec.Record(finishedTrace("q", time.Duration(base*50+j)*time.Millisecond))
				rec.Slowest()
			}
		}(i)
	}
	wg.Wait()
	got := rec.Slowest()
	if len(got) != 8 {
		t.Fatalf("retained %d, want 8", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].TotalSeconds > got[i-1].TotalSeconds {
			t.Fatalf("retained traces out of order at %d: %v then %v", i, got[i-1].TotalSeconds, got[i].TotalSeconds)
		}
	}
}
