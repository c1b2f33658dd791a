package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"treesketch/internal/exp"
	"treesketch/internal/obs"
	"treesketch/internal/sketch"
	"treesketch/internal/tsbuild"
)

// waitFor polls cond until it holds or the test times out; the admission
// tests use it to sequence goroutines on observable state (gauges) instead
// of sleeps.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// get503 fetches path and decodes the structured error body, asserting 503.
func get503(t *testing.T, ts *httptest.Server, path string) (errorResponse, http.Header) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("GET %s: status %d, want 503", path, resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("503 body not JSON: %v", err)
	}
	return er, resp.Header
}

// TestAdmissionShedBeforeEval drives the gate deterministically: the test
// occupies the single eval slot white-box, so one request queues (and sheds
// on its deadline) and the next sheds on the full queue — all before any
// parse or eval work, which the eval counters prove.
func TestAdmissionShedBeforeEval(t *testing.T) {
	s, q := newTestServer(t, Options{MaxInflight: 1, MaxQueue: 1, Deadline: 60 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	path := "/estimate?dataset=imdb&q=" + urlQueryEscape(q)

	s.gate.sem <- struct{}{} // occupy the only eval slot

	// First request takes the only queue slot and waits.
	var wg sync.WaitGroup
	wg.Add(1)
	var queuedErr errorResponse
	go func() {
		defer wg.Done()
		queuedErr, _ = get503(t, ts, path)
	}()
	waitFor(t, "request to queue", func() bool { return s.gate.qm.Depth.Value() == 1 })

	// Second request finds slot and queue both full: immediate shed.
	er, hdr := get503(t, ts, path)
	if er.Code != "shed_queue_full" {
		t.Errorf("queue-full shed code = %q", er.Code)
	}
	if er.TraceID == "" || er.RetryAfterSeconds < 1 {
		t.Errorf("queue-full shed body = %+v", er)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("queue-full shed missing Retry-After header")
	}

	// The queued request runs out of deadline budget while waiting.
	wg.Wait()
	if queuedErr.Code != "shed_deadline" {
		t.Errorf("queued shed code = %q", queuedErr.Code)
	}

	// Nothing was admitted, so nothing was parsed or evaluated.
	snap := s.Registry().Snapshot()
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "eval.") && v != 0 {
			t.Errorf("shed requests did eval work: %s = %d", name, v)
		}
	}
	if n := snap.Counters["serve.admission.shed_queue_full"]; n != 1 {
		t.Errorf("shed_queue_full = %d, want 1", n)
	}
	if n := snap.Counters["serve.admission.shed_deadline"]; n != 1 {
		t.Errorf("shed_deadline = %d, want 1", n)
	}
	if n := snap.Counters["serve.admission.queued"]; n != 1 {
		t.Errorf("queued = %d, want 1", n)
	}
	if n := snap.Counters["serve.http.errors"]; n != 0 {
		t.Errorf("sheds must not count as client errors, got %d", n)
	}
	if w := snap.Windows["serve.admission.queue_wait_seconds"]; w.Count != 1 {
		t.Errorf("queue wait observations = %d, want 1", w.Count)
	}
	// The latency window holds answered requests only.
	if w := snap.Windows["serve.request.latency_seconds"]; w.Count != 0 {
		t.Errorf("latency window counted shed requests: %d", w.Count)
	}

	// Shed traces land in the flight recorder, labeled with their reason.
	reasons := map[string]int{}
	for _, trace := range s.FlightRecorder().Slowest() {
		reasons[trace.Labels["shed"]]++
	}
	if reasons["shed_queue_full"] != 1 || reasons["shed_deadline"] != 1 {
		t.Errorf("flight recorder shed labels = %v", reasons)
	}

	// Free the slot: the server admits and answers again.
	<-s.gate.sem
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("post-release status = %d, want 200", resp.StatusCode)
	}
	if n := s.Registry().Snapshot().Counters["serve.admission.admitted"]; n != 1 {
		t.Errorf("admitted = %d, want 1", n)
	}
}

// TestAdmissionSaturation hammers a limiter of size 1 with many concurrent
// clients (run under -race): every request gets exactly one terminal
// outcome, and the admission counters account for all of them.
func TestAdmissionSaturation(t *testing.T) {
	s, q := newTestServer(t, Options{MaxInflight: 1, MaxQueue: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	path := "/estimate?dataset=imdb&q=" + urlQueryEscape(q)

	const clients = 24
	statuses := make(chan int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Error(err)
				statuses <- 0
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(statuses)

	counts := map[int]int{}
	for st := range statuses {
		counts[st]++
	}
	if got := counts[200] + counts[503]; got != clients {
		t.Fatalf("status counts = %v, want %d requests all 200 or 503", counts, clients)
	}

	snap := s.Registry().Snapshot()
	admitted := snap.Counters["serve.admission.admitted"]
	shedFull := snap.Counters["serve.admission.shed_queue_full"]
	shedDl := snap.Counters["serve.admission.shed_deadline"]
	if admitted+shedFull+shedDl != clients {
		t.Errorf("admitted %d + shed_queue_full %d + shed_deadline %d != %d",
			admitted, shedFull, shedDl, clients)
	}
	if int64(counts[200]) != admitted {
		t.Errorf("200s = %d but admitted = %d", counts[200], admitted)
	}
	if snap.Counters["serve.http.requests"] != clients {
		t.Errorf("request counter = %d, want %d", snap.Counters["serve.http.requests"], clients)
	}
	if d := snap.Gauges["serve.admission.queue_depth"]; d != 0 {
		t.Errorf("queue depth after drain = %d, want 0", d)
	}
	if d := snap.Gauges["serve.http.inflight"]; d != 0 {
		t.Errorf("inflight after drain = %d, want 0", d)
	}
}

// TestConcurrentCatalogSwap races SetCatalog against in-flight estimates
// (run under -race): requests see either the old or the new catalog, never
// a torn one, and every response is a terminal 200 or 404.
func TestConcurrentCatalogSwap(t *testing.T) {
	s, q := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r := exp.NewRunner(exp.Config{TXScale: 2000, Seed: 1})
	xm, _ := tsbuild.Build(r.Stable("XMark-TX"), tsbuild.Options{BudgetBytes: 10 << 10})
	imdb := (*s.catalog.Load())["imdb"].sk

	stop := make(chan struct{})
	var swaps sync.WaitGroup
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s.SetCatalog(map[string]*sketch.Sketch{"imdb": imdb, "xmark": xm})
			} else {
				s.SetCatalog(map[string]*sketch.Sketch{"imdb": imdb})
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				ds := "imdb"
				if j%2 == 1 {
					ds = "xmark"
				}
				resp, err := ts.Client().Get(ts.URL + "/estimate?dataset=" + ds + "&q=" + urlQueryEscape(q))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 && resp.StatusCode != 404 {
					t.Errorf("dataset %s: status %d", ds, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swaps.Wait()

	s.SetCatalog(map[string]*sketch.Sketch{"imdb": imdb})
	if got := s.Datasets(); len(got) != 1 || got[0] != "imdb" {
		t.Errorf("final catalog = %v", got)
	}
	if g := s.Registry().Snapshot().Gauges["serve.catalog.sketches"]; g != 1 {
		t.Errorf("catalog gauge = %d, want 1", g)
	}
}

// TestDrain sequences a graceful drain deterministically: a request queued
// before StartDrain completes (counted drained), a request arriving after
// is shed with code "draining".
func TestDrain(t *testing.T) {
	s, q := newTestServer(t, Options{MaxInflight: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	path := "/estimate?dataset=imdb&q=" + urlQueryEscape(q)

	s.gate.sem <- struct{}{} // park the pre-drain request in the queue
	var wg sync.WaitGroup
	wg.Add(1)
	var preDrainStatus int
	go func() {
		defer wg.Done()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		preDrainStatus = resp.StatusCode
	}()
	waitFor(t, "request to queue", func() bool { return s.gate.qm.Depth.Value() == 1 })

	s.StartDrain()

	// Arrivals during the drain are refused up front.
	er, _ := get503(t, ts, path)
	if er.Code != "draining" {
		t.Errorf("drain shed code = %q", er.Code)
	}

	// The queued request was admitted before the drain: it runs to completion.
	<-s.gate.sem
	wg.Wait()
	if preDrainStatus != 200 {
		t.Errorf("pre-drain request status = %d, want 200", preDrainStatus)
	}

	completed, shed := s.DrainStats()
	if completed != 1 || shed != 1 {
		t.Errorf("DrainStats() = (%d, %d), want (1, 1)", completed, shed)
	}
}

// TestSlowTracesDatasetFilter exercises the /debug/obs/slow?dataset= filter
// through the serving stack: traces carry the dataset label the handler
// sets, and the filter scopes the flight recorder to one dataset.
func TestSlowTracesDatasetFilter(t *testing.T) {
	s, q := newTestServer(t, Options{})
	r := exp.NewRunner(exp.Config{TXScale: 2000, Seed: 1})
	xm, _ := tsbuild.Build(r.Stable("XMark-TX"), tsbuild.Options{BudgetBytes: 10 << 10})
	s.AddSketch("xmark", xm)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ds := range []string{"imdb", "xmark", "imdb"} {
		resp, err := ts.Client().Get(ts.URL + "/estimate?dataset=" + ds + "&q=" + urlQueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("estimate %s: status %d", ds, resp.StatusCode)
		}
	}

	slow := func(path string) []obs.TraceSnapshot {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var traces []obs.TraceSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
			t.Fatal(err)
		}
		return traces
	}
	if got := slow("/debug/obs/slow"); len(got) != 3 {
		t.Fatalf("unfiltered slow traces = %d, want 3", len(got))
	}
	xmOnly := slow("/debug/obs/slow?dataset=xmark")
	if len(xmOnly) != 1 || xmOnly[0].Labels["dataset"] != "xmark" {
		t.Errorf("dataset=xmark filter = %+v", xmOnly)
	}
}

// TestErrorCodes pins the machine-readable code on each client-error body.
func TestErrorCodes(t *testing.T) {
	s, q := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code := func(path string) string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return er.Code
	}
	if got := code("/estimate"); got != "missing_query" {
		t.Errorf("missing q code = %q", got)
	}
	if got := code("/estimate?q=" + urlQueryEscape("//[broken")); got != "parse_error" {
		t.Errorf("parse code = %q", got)
	}
	if got := code("/estimate?dataset=nope&q=" + urlQueryEscape(q)); got != "unknown_dataset" {
		t.Errorf("dataset code = %q", got)
	}
}

// TestRetryAfterNoWaitingRoom pins the backoff hint when the gate runs with
// no queue (-max-queue negative): slots turn over in about one service
// time, so a saturated-slot shed must advertise the minimum hint (1s), not
// a stale full-deadline wait.
func TestRetryAfterNoWaitingRoom(t *testing.T) {
	s, q := newTestServer(t, Options{MaxInflight: 1, MaxQueue: -1, Deadline: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.gate.sem <- struct{}{} // occupy the only eval slot; no queue exists
	er, hdr := get503(t, ts, "/estimate?dataset=imdb&q="+urlQueryEscape(q))
	if er.Code != "shed_queue_full" {
		t.Fatalf("shed code = %q", er.Code)
	}
	if er.RetryAfterSeconds != 1 {
		t.Errorf("no-waiting-room RetryAfterSeconds = %d, want 1 (one service time, not one deadline)", er.RetryAfterSeconds)
	}
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Errorf("no-waiting-room Retry-After header = %q, want \"1\"", got)
	}
}

// TestRetryAfterRealQueue is the counterpart: with actual waiting room, a
// queue-full shed keeps the deadline-derived hint — the queue needs roughly
// that long to drain.
func TestRetryAfterRealQueue(t *testing.T) {
	s, q := newTestServer(t, Options{MaxInflight: 1, MaxQueue: 2, Deadline: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.gate.sem <- struct{}{} // occupy the eval slot
	s.gate.queue <- struct{}{}
	s.gate.queue <- struct{}{} // fill the waiting room white-box
	er, _ := get503(t, ts, "/estimate?dataset=imdb&q="+urlQueryEscape(q))
	if er.Code != "shed_queue_full" {
		t.Fatalf("shed code = %q", er.Code)
	}
	if er.RetryAfterSeconds != 5 {
		t.Errorf("queue-full RetryAfterSeconds = %d, want 5 (the deadline)", er.RetryAfterSeconds)
	}
}

// TestRetryAfterDraining pins the drain hint: a draining process never
// takes the retry, so the client should fail over immediately (1s), not
// wait out a deadline that has nothing to do with recovery.
func TestRetryAfterDraining(t *testing.T) {
	s, q := newTestServer(t, Options{Deadline: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.StartDrain()
	er, hdr := get503(t, ts, "/estimate?dataset=imdb&q="+urlQueryEscape(q))
	if er.Code != "draining" {
		t.Fatalf("shed code = %q", er.Code)
	}
	if er.RetryAfterSeconds != 1 {
		t.Errorf("draining RetryAfterSeconds = %d, want 1 (fail over now)", er.RetryAfterSeconds)
	}
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Errorf("draining Retry-After header = %q, want \"1\"", got)
	}
}
