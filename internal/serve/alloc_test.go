package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

	"treesketch/internal/datagen"
	"treesketch/internal/obs"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, reusing one header map, so a test can count what the handler
// allocates without counting a recorder's buffers.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// xmarkServer builds a Server over one static XMark synopsis, "xmark",
// with the given flight recorder capacity.
func xmarkServer(t *testing.T, slowTraces int) *Server {
	t.Helper()
	sk, _ := tsbuild.Build(stable.Build(datagen.Generate(datagen.XMark, 3000, 1)), tsbuild.Options{BudgetBytes: 4 << 10})
	s := New(Options{Metrics: obs.NewRegistry(), SlowTraces: slowTraces})
	s.AddSketch("xmark", sk)
	return s
}

// estimateRequest is a GET /estimate for src on the xmark dataset, escaped
// the way HTTP clients send query text.
func estimateRequest(src string) *http.Request {
	return httptest.NewRequest(http.MethodGet, "/estimate?dataset=xmark&q="+url.QueryEscape(src), nil)
}

// TestEstimateAllocationGuard pins what a warm, unbudgeted /estimate on a
// static dataset allocates in the handler: the request context and its
// timer, the parsed query, the unescaped query text, the trace ID and the
// JSON encoding. The trace's spans, counters and labels, the parameter map
// and the re-rendered query text are gone from it; any of them coming back
// crosses the ceilings, which sit a few allocations above what the handler
// measured when they were set (27-28 allocations, 980-1,070 bytes) and far
// below the 45 allocations and 2,870 bytes it took before.
func TestEstimateAllocationGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const (
		maxAllocs = 32
		maxBytes  = 1400
	)
	h := xmarkServer(t, 0).Handler()
	req := estimateRequest("//item[//incategory]{//name?}")
	w := &discardWriter{h: http.Header{}}
	// Past the flight recorder's capacity, so the warm requests are not
	// snapshotted for filling it.
	for range 2 * obs.DefaultFlightRecorderSize {
		h.ServeHTTP(w, req)
	}
	if w.code != http.StatusOK {
		t.Fatalf("status %d", w.code)
	}

	// One P, as testing.AllocsPerRun counts, so no other goroutine's
	// allocations land in the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		h.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("%.1f allocations, %.0f bytes per request; want <= %d and <= %d", allocs, bytes, maxAllocs, maxBytes)
	}
	t.Logf("%.1f allocations, %.0f bytes per request", allocs, bytes)
}

// poolRequests is how many requests the pool-safety tests serve after the
// one whose trace they follow; the recorder keeps every trace, so the
// followed one stays retained however fast the later requests run.
const poolRequests = 1000

// retainFirst serves one request, which the flight recorder retains, and
// returns its trace ID and the JSON of its retained snapshot. Its first
// span is serve.inject_delay, which no later request records, so its span
// storage, once reused, reads differently.
func retainFirst(t *testing.T, s *Server) (string, []byte) {
	t.Helper()
	s.injectDelay = time.Millisecond
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, estimateRequest("//item[//incategory]{//name?}"))
	s.injectDelay = 0
	var er EstimateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); w.Code != http.StatusOK || err != nil {
		t.Fatalf("first request: status %d, %v", w.Code, err)
	}
	tr, ok := retained(s, er.TraceID)
	if !ok || len(tr.Spans) == 0 || tr.Spans[0].Name != "serve.inject_delay" || len(tr.Counters) == 0 || tr.Labels["dataset"] != "xmark" {
		t.Fatalf("retained trace %+v (found %v): want spans from serve.inject_delay on, counters and a dataset label", tr, ok)
	}
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return er.TraceID, b
}

// retained finds the recorder's snapshot of trace id.
func retained(s *Server, id string) (obs.TraceSnapshot, bool) {
	for _, tr := range s.rec.Slowest() {
		if tr.TraceID == id {
			return tr, true
		}
	}
	return obs.TraceSnapshot{}, false
}

// checkRetained fails unless the recorder still holds trace id exactly as
// retainFirst returned it.
func checkRetained(t *testing.T, s *Server, id string, want []byte) {
	t.Helper()
	tr, ok := retained(s, id)
	if !ok {
		t.Fatalf("trace %s is no longer retained", id)
	}
	got, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("retained trace changed after later requests:\nbefore %s\nafter  %s", want, got)
	}
}

// TestRetainedTraceSurvivesPoolReuse pins the ownership rule of pooled
// traces: the handler releases its trace on exit, so the next request
// reuses the trace's storage, and a trace the flight recorder retained must
// keep its spans, counters and labels through 1,000 such requests. A
// snapshot sharing the trace's span storage fails this.
func TestRetainedTraceSurvivesPoolReuse(t *testing.T) {
	s := xmarkServer(t, poolRequests+1)
	id, want := retainFirst(t, s)
	h := s.Handler()
	w := &discardWriter{h: http.Header{}}
	req := estimateRequest("//open_auction[//bidder]{//seller?}")
	for range poolRequests {
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	checkRetained(t, s, id, want)
}

// TestRetainedTraceSurvivesPoolReuseConcurrent is the same check with the
// 1,000 requests spread over four goroutines while two more read every
// retained snapshot's spans, as /debug/obs/slow does; under -race a
// snapshot sharing storage with a reused trace is also a reported race.
func TestRetainedTraceSurvivesPoolReuseConcurrent(t *testing.T) {
	s := xmarkServer(t, poolRequests+1)
	id, want := retainFirst(t, s)
	h := s.Handler()
	queries := []string{"//open_auction[//bidder]{//seller?}", "//item{//name?}", "//person[//watches]", "//category//text"}
	var (
		clients, readers sync.WaitGroup
		done             = make(chan struct{})
	)
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var total time.Duration
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, tr := range s.rec.Slowest() {
					for _, sp := range tr.Spans {
						total += sp.Duration
					}
				}
			}
		}()
	}
	for _, src := range queries {
		clients.Add(1)
		go func() {
			defer clients.Done()
			w := &discardWriter{h: http.Header{}}
			req := estimateRequest(src)
			for range poolRequests / len(queries) {
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					t.Errorf("%s: status %d", src, w.code)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(done)
	readers.Wait()
	checkRetained(t, s, id, want)
}
