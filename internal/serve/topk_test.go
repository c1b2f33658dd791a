package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// getEstimate fetches path and decodes a successful estimate body.
func getEstimate(t *testing.T, ts *httptest.Server, path string) EstimateResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d, want 200", path, resp.StatusCode)
	}
	var er EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("GET %s: body not JSON: %v", path, err)
	}
	return er
}

// TestEstimateTopKStreaming drives ?k= end to end: a finite budget yields a
// budget-respecting partial answer with truncation accounting, and an
// unbounded streaming request (?k=-1) reproduces the batch selectivity
// bit for bit.
func TestEstimateTopKStreaming(t *testing.T) {
	s, q := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	base := "/estimate?dataset=imdb&q=" + urlQueryEscape(q)

	batch := getEstimate(t, ts, base)
	if batch.TopK != nil || batch.Partial {
		t.Fatalf("batch response carries top-k fields: %+v", batch)
	}

	bounded := getEstimate(t, ts, base+"&k=4")
	if bounded.TopK == nil {
		t.Fatal("?k=4 response has no topk block")
	}
	if bounded.TopK.K != 4 || bounded.TopK.Expanded > 4 || bounded.TopK.Expanded < 1 {
		t.Fatalf("?k=4 coverage = %+v", bounded.TopK)
	}
	if bounded.Partial != !bounded.TopK.Exhausted {
		t.Fatalf("Partial=%v but Exhausted=%v", bounded.Partial, bounded.TopK.Exhausted)
	}
	if bounded.TopK.EmittedMass < 0 || (bounded.TopK.ErrorBoundFinite && bounded.TopK.ErrorBound < 0) {
		t.Fatalf("negative masses: %+v", bounded.TopK)
	}
	if !bounded.TopK.EmittedMassFinite {
		t.Fatalf("finite emitted mass not flagged: %+v", bounded.TopK)
	}

	streamed := getEstimate(t, ts, base+"&k=-1")
	if streamed.TopK == nil || !streamed.TopK.Exhausted || streamed.Partial {
		t.Fatalf("unbounded stream = %+v", streamed.TopK)
	}
	if streamed.TopK.ErrorBound != 0 || !streamed.TopK.ErrorBoundFinite {
		t.Fatalf("exhausted stream ErrorBound = %+v", streamed.TopK)
	}
	if math.Float64bits(streamed.Selectivity) != math.Float64bits(batch.Selectivity) {
		t.Fatalf("streamed selectivity %v != batch %v", streamed.Selectivity, batch.Selectivity)
	}
	if streamed.ResultNodes != batch.ResultNodes {
		t.Fatalf("streamed nodes %d != batch %d", streamed.ResultNodes, batch.ResultNodes)
	}

	snap := s.Registry().Snapshot()
	if n := snap.Counters["eval.topk.queries"]; n != 2 {
		t.Errorf("eval.topk.queries = %d, want 2", n)
	}
	if snap.Counters["eval.topk.expanded"] < 1 {
		t.Error("eval.topk.expanded not incremented")
	}

	// Malformed budgets are client errors with a stable code.
	for _, bad := range []string{"&k=0", "&k=abc"} {
		resp, err := ts.Client().Get(ts.URL + base + bad)
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != 400 || er.Code != "bad_k" {
			t.Errorf("%s: status %d code %q, want 400 bad_k", bad, resp.StatusCode, er.Code)
		}
	}
}

// TestEstimateMaxResultBytes checks the server-wide byte budget converts to
// a default node budget when the request names none.
func TestEstimateMaxResultBytes(t *testing.T) {
	s, q := newTestServer(t, Options{MaxResultBytes: 3 * resultNodeBytes})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	er := getEstimate(t, ts, "/estimate?dataset=imdb&q="+urlQueryEscape(q))
	if er.TopK == nil || er.TopK.K != 3 {
		t.Fatalf("default byte budget response = %+v", er.TopK)
	}
	// An explicit ?k= below the cap picks the smaller budget.
	er = getEstimate(t, ts, "/estimate?dataset=imdb&k=1&q="+urlQueryEscape(q))
	if er.TopK == nil || er.TopK.K != 1 {
		t.Fatalf("?k=1 override response = %+v", er.TopK)
	}
	// The operator cap is a hard ceiling: a ?k= above it, or a negative
	// (unbounded-streaming) k, is clamped back to the derived node budget —
	// an untrusted client cannot lift the daemon's per-query memory cap.
	er = getEstimate(t, ts, "/estimate?dataset=imdb&k=100&q="+urlQueryEscape(q))
	if er.TopK == nil || er.TopK.K != 3 {
		t.Fatalf("?k=100 over cap response = %+v, want clamp to 3", er.TopK)
	}
	er = getEstimate(t, ts, "/estimate?dataset=imdb&k=-1&q="+urlQueryEscape(q))
	if er.TopK == nil || er.TopK.K != 3 {
		t.Fatalf("?k=-1 under cap response = %+v, want clamp to 3", er.TopK)
	}
}

// TestEstimateDeadlinePartialAnswer pins the tentpole's deadline semantics:
// with streaming enabled, an exhausted deadline returns the partial answer
// plus its bound as a 200 marked Partial — while the batch path keeps its
// historical 503.
func TestEstimateDeadlinePartialAnswer(t *testing.T) {
	s, q := newTestServer(t, Options{Deadline: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	base := "/estimate?dataset=imdb&q=" + urlQueryEscape(q)

	// Batch mode: deadline hit stays a 503.
	resp, err := ts.Client().Get(ts.URL + base)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("batch deadline status = %d, want 503", resp.StatusCode)
	}

	// Streaming mode: the root is always expanded, so the client gets the
	// partial answer it was promised.
	er := getEstimate(t, ts, base+"&k=8")
	if er.TopK == nil || !er.TopK.DeadlineHit || !er.Partial {
		t.Fatalf("deadline-partial response = %+v (topk %+v)", er, er.TopK)
	}
	if er.TopK.Expanded < 1 {
		t.Fatalf("deadline-partial expanded %d nodes, want >= 1", er.TopK.Expanded)
	}

	snap := s.Registry().Snapshot()
	if n := snap.Counters["serve.http.deadline_partial"]; n != 1 {
		t.Errorf("serve.http.deadline_partial = %d, want 1", n)
	}
	if n := snap.Counters["serve.http.deadline_exceeded"]; n != 1 {
		t.Errorf("serve.http.deadline_exceeded = %d, want 1", n)
	}
}

// exactTestServer publishes one small dataset with both a synopsis and
// its document, plus a synopsis-only dataset.
func exactTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	doc := xmltree.MustCompact("r(a(b(c),b,d),a(b),a,e(d,d))")
	sk := sketch.FromStable(stable.Build(doc))
	s := New(Options{Metrics: obs.NewRegistry()})
	s.AddSketch("tiny", sk)
	s.AddIndex("tiny", eval.NewIndex(doc))
	s.AddSketch("synonly", sk)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestExactModeHTTP drives ?mode=exact end to end: true counts from the
// document's summary, a node budget that streams the summary's result
// synopsis without touching the count, and the structured 404 for
// synopsis-only datasets.
func TestExactModeHTTP(t *testing.T) {
	_, ts := exactTestServer(t)
	q := urlQueryEscape("//a{//b?}")

	er := getEstimate(t, ts, "/estimate?dataset=tiny&mode=exact&q="+q)
	if er.Mode != "exact" {
		t.Fatalf("mode = %q", er.Mode)
	}
	// Three a-elements with 2, 1, 0 b-descendants contribute 2 + 1 + 1(NULL)
	// binding tuples; the count is exact, so pin it.
	if er.Selectivity != 4 || er.Empty {
		t.Fatalf("exact count = %v empty=%v, want 4/false", er.Selectivity, er.Empty)
	}
	if er.TopK != nil || er.Tier != nil {
		t.Fatalf("unbudgeted exact answer carries a topk or tier block: %+v", er)
	}

	// The summary's result synopsis holds the root, the three a classes and
	// the two b classes; its raw mass is the nesting tree's 1 + 3 + 3
	// elements.
	full := getEstimate(t, ts, "/estimate?dataset=tiny&mode=exact&k=-1&q="+q)
	if full.TopK == nil || !full.TopK.Exhausted || full.Partial {
		t.Fatalf("unbounded exact stream = %+v", full.TopK)
	}
	if full.Selectivity != 4 || full.ResultNodes != er.ResultNodes || full.ResultNodes != 6 {
		t.Fatalf("unbounded exact stream: selectivity %v, %d nodes; want 4 and the count's %d nodes (6)",
			full.Selectivity, full.ResultNodes, er.ResultNodes)
	}
	if full.TopK.EmittedMass != 7 || full.TopK.ErrorBound != 0 {
		t.Fatalf("unbounded exact stream masses %v + %v, want 7 + 0", full.TopK.EmittedMass, full.TopK.ErrorBound)
	}
	// k=2 expands the root and the a class with two b children; the
	// streamed result also holds the frontier (the other two a classes and
	// both b classes), so it has all 6 nodes. The a(b) class's b is not
	// linked yet: it is missing from the emitted 6 and priced by the bound.
	part := getEstimate(t, ts, "/estimate?dataset=tiny&mode=exact&k=2&q="+q)
	if part.TopK == nil || part.TopK.Expanded != 2 || part.TopK.Discovered != 6 || !part.Partial {
		t.Fatalf("budgeted exact stream = %+v (topk %+v)", part, part.TopK)
	}
	if part.Selectivity != 4 || part.ResultNodes != 6 {
		t.Fatalf("budgeted exact answer: selectivity %v, %d nodes; want the full count 4 over 6 nodes",
			part.Selectivity, part.ResultNodes)
	}
	if part.TopK.EmittedMass != 6 || part.TopK.ErrorBound != 1 {
		t.Fatalf("exact accounting: %v emitted + %v bound, want 6 + 1 of the %v total",
			part.TopK.EmittedMass, part.TopK.ErrorBound, full.TopK.EmittedMass)
	}

	resp, err := ts.Client().Get(ts.URL + "/estimate?dataset=synonly&mode=exact&q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	var ee errorResponse
	json.NewDecoder(resp.Body).Decode(&ee)
	resp.Body.Close()
	if resp.StatusCode != 404 || ee.Code != "no_exact_index" {
		t.Fatalf("synopsis-only exact: status %d code %q, want 404 no_exact_index", resp.StatusCode, ee.Code)
	}

	resp, err = ts.Client().Get(ts.URL + "/estimate?dataset=tiny&mode=bogus&q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&ee)
	resp.Body.Close()
	if resp.StatusCode != 400 || ee.Code != "bad_mode" {
		t.Fatalf("bad mode: status %d code %q, want 400 bad_mode", resp.StatusCode, ee.Code)
	}
}

// TestExactModeConcurrentFirstRequests: exact requests racing on a frozen
// dataset's first use share one summary build and all answer its count.
// Run under -race.
func TestExactModeConcurrentFirstRequests(t *testing.T) {
	_, ts := exactTestServer(t)
	url := ts.URL + "/estimate?dataset=tiny&mode=exact&q=" + urlQueryEscape("//a{//b?}")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var er EstimateResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || resp.StatusCode != 200 || er.Selectivity != 4 {
				t.Errorf("concurrent first exact request: status %d, selectivity %v, decode error %v", resp.StatusCode, er.Selectivity, err)
			}
		}()
	}
	wg.Wait()
}

// TestExactTelemetryInServerRegistry: an exact-mode request runs the
// approximate evaluator over the summary, so its eval.approx.* and
// eval.topk.* telemetry lands where the rest of the request's telemetry
// goes, the server's registry, and leaves obs.Default alone.
func TestExactTelemetryInServerRegistry(t *testing.T) {
	s, ts := exactTestServer(t)
	before := obs.Default().Snapshot()
	getEstimate(t, ts, "/estimate?dataset=tiny&mode=exact&k=4&q="+urlQueryEscape("//a/b"))
	snap := s.Registry().Snapshot()
	if got := snap.Counters["eval.approx.queries"]; got != 1 {
		t.Errorf("server registry eval.approx.queries = %d, want 1 (the count)", got)
	}
	if got := snap.Counters["eval.topk.queries"]; got != 1 {
		t.Errorf("server registry eval.topk.queries = %d, want 1 (the stream)", got)
	}
	if got := snap.Timers["eval.approx.query"].Count; got != 1 {
		t.Errorf("server registry eval.approx.query timer count = %d, want 1", got)
	}
	after := obs.Default().Snapshot()
	for _, name := range []string{"eval.approx.queries", "eval.topk.queries", "eval.exact.queries"} {
		if got, was := after.Counters[name], before.Counters[name]; got != was {
			t.Errorf("obs.Default %s moved %d -> %d", name, was, got)
		}
	}
}

// TestTupleOverflowHTTP is the satellite regression: a query whose exact
// tuple count overflows float64 must come back as a structured 422 with its
// own code — not an unstructured 500, and not a JSON-encoder failure from
// +Inf — with the trace shed-tagged for overload forensics.
func TestTupleOverflowHTTP(t *testing.T) {
	// A root child x with 10 children of each of 350 distinct labels; the
	// tuple count of a query with all 350 branches required is 10^350 > the
	// float64 max of ~1.8e308.
	doc := xmltree.NewTree()
	root := doc.NewNode("r")
	doc.Root = root
	x := doc.NewNode("x")
	root.Children = append(root.Children, x)
	var branches []string
	for i := 0; i < 350; i++ {
		label := fmt.Sprintf("l%03d", i)
		branches = append(branches, "/"+label)
		for j := 0; j < 10; j++ {
			c := doc.NewNode(label)
			x.Children = append(x.Children, c)
		}
	}
	qsrc := "/x{" + strings.Join(branches, ",") + "}"

	s := New(Options{Metrics: obs.NewRegistry()})
	s.AddSketch("big", sketch.FromStable(stable.Build(doc)))
	s.AddIndex("big", eval.NewIndex(doc))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/estimate?dataset=big&mode=exact&q=" + urlQueryEscape(qsrc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("overflow status = %d, want 422", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("overflow body not JSON: %v", err)
	}
	if er.Code != "tuple_overflow" || er.TraceID == "" || er.Error == "" {
		t.Fatalf("overflow body = %+v", er)
	}

	snap := s.Registry().Snapshot()
	if n := snap.Counters["serve.http.tuple_overflow"]; n != 1 {
		t.Errorf("serve.http.tuple_overflow = %d, want 1", n)
	}
	tagged := false
	for _, trace := range s.FlightRecorder().Slowest() {
		if trace.Labels["shed"] == "tuple_overflow" {
			tagged = true
		}
	}
	if !tagged {
		t.Error("overflow trace not shed-tagged in the flight recorder")
	}

	// The same query through the approximate path must still answer 200:
	// approximate counts saturate instead of erroring.
	resp2, err := ts.Client().Get(ts.URL + "/estimate?dataset=big&q=" + urlQueryEscape(qsrc))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Errorf("approx path on overflowing query: status %d, want 200", resp2.StatusCode)
	}
}

// TestExactModeDeadline503 pins exact-mode cancellation through the serve
// path: a request deadline that expires during the count over the summary
// must come back as the standard deadline 503 — with the evaluator
// actually stopped by the approximate path's cancellation — instead of
// occupying an admission slot until the evaluation completes.
func TestExactModeDeadline503(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b(c),b,d),a(b),a,e(d,d))")
	s := New(Options{Deadline: time.Nanosecond, Metrics: obs.NewRegistry()})
	s.AddSketch("tiny", sketch.FromStable(stable.Build(doc)))
	s.AddIndex("tiny", eval.NewIndex(doc))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/estimate?dataset=tiny&mode=exact&q=" + urlQueryEscape("//a{//b?}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("exact-mode deadline status = %d, want 503", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("deadline body not JSON: %v", err)
	}
	if er.Code != "deadline_exceeded" {
		t.Fatalf("deadline code = %q, want deadline_exceeded", er.Code)
	}
	if n := s.Registry().Snapshot().Counters["serve.http.deadline_exceeded"]; n != 1 {
		t.Errorf("serve.http.deadline_exceeded = %d, want 1", n)
	}
	// The evaluator-side cancellation counter lands in the server's
	// registry, like the rest of the request's telemetry.
	if n := s.Registry().Snapshot().Counters["eval.approx.canceled"]; n != 1 {
		t.Errorf("eval.approx.canceled = %d, want 1", n)
	}
}

// TestFinishEstimateExhaustedNotPartial pins the deadline-settlement
// matrix: an Exhausted streamed answer whose deadline lapsed only after the
// work finished is a complete answer (200, Partial false, eval's
// DeadlineHit report preserved); a non-exhausted stream with >= 1 node goes
// out 200 Partial with DeadlineHit forced; nothing emitted stays a 503.
func TestFinishEstimateExhaustedNotPartial(t *testing.T) {
	s := New(Options{Metrics: obs.NewRegistry()})
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	settle := func(resp EstimateResponse) (*httptest.ResponseRecorder, EstimateResponse) {
		t.Helper()
		w := httptest.NewRecorder()
		s.finishEstimate(w, expired, obs.NewTrace("q"), resp)
		var out EstimateResponse
		if w.Code == 200 {
			if err := json.NewDecoder(w.Body).Decode(&out); err != nil {
				t.Fatalf("200 body not JSON: %v", err)
			}
		}
		return w, out
	}

	w, out := settle(EstimateResponse{TopK: &TopKResponse{Expanded: 5, Exhausted: true}})
	if w.Code != 200 || out.Partial || out.TopK.DeadlineHit {
		t.Fatalf("exhausted past deadline: status %d partial=%v deadline_hit=%v, want 200/false/false",
			w.Code, out.Partial, out.TopK.DeadlineHit)
	}

	w, out = settle(EstimateResponse{TopK: &TopKResponse{Expanded: 1}})
	if w.Code != 200 || !out.Partial || !out.TopK.DeadlineHit {
		t.Fatalf("truncated past deadline: status %d partial=%v deadline_hit=%v, want 200/true/true",
			w.Code, out.Partial, out.TopK.DeadlineHit)
	}

	w, _ = settle(EstimateResponse{})
	if w.Code != 503 {
		t.Fatalf("batch past deadline: status %d, want 503", w.Code)
	}

	snap := s.Registry().Snapshot()
	if n := snap.Counters["serve.http.deadline_partial"]; n != 1 {
		t.Errorf("serve.http.deadline_partial = %d, want 1", n)
	}
	if n := snap.Counters["serve.http.deadline_exceeded"]; n != 1 {
		t.Errorf("serve.http.deadline_exceeded = %d, want 1", n)
	}
}

// TestTopKResponseNonFinite pins the wire conversion's non-finite routing:
// encoding/json cannot carry Inf or NaN, so each mass travels with its own
// finiteness flag instead of silently collapsing to an ambiguous zero.
func TestTopKResponseNonFinite(t *testing.T) {
	r := topKResponse(&eval.TopKInfo{EmittedMass: math.Inf(1), ErrorBound: math.NaN()})
	if r.EmittedMass != 0 || r.EmittedMassFinite {
		t.Fatalf("infinite emitted mass = %v finite=%v, want 0/false", r.EmittedMass, r.EmittedMassFinite)
	}
	if r.ErrorBound != 0 || r.ErrorBoundFinite {
		t.Fatalf("NaN error bound = %v finite=%v, want 0/false", r.ErrorBound, r.ErrorBoundFinite)
	}
	r = topKResponse(&eval.TopKInfo{EmittedMass: 3, ErrorBound: 0.5})
	if r.EmittedMass != 3 || !r.EmittedMassFinite || r.ErrorBound != 0.5 || !r.ErrorBoundFinite {
		t.Fatalf("finite masses = %+v, want both values with flags set", r)
	}
}

// TestApproxModeDeadline503 pins batch-approx cancellation through the
// serve path (the approx-mode twin of TestExactModeDeadline503): a request
// deadline that expires during batch evaluation comes back as the standard
// deadline 503 with the enumeration actually stopped — no partial synopsis
// escapes as an answer — and the evaluator-side counter records the abort
// in the server's own registry.
func TestApproxModeDeadline503(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b(c),b,d),a(b),a,e(d,d))")
	s := New(Options{Deadline: time.Nanosecond, Metrics: obs.NewRegistry()})
	s.AddSketch("tiny", sketch.FromStable(stable.Build(doc)))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/estimate?dataset=tiny&q=" + urlQueryEscape("//a{//b?}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("approx-mode deadline status = %d, want 503", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("deadline body not JSON: %v", err)
	}
	if er.Code != codeDeadlineExceeded {
		t.Fatalf("deadline code = %q, want %q", er.Code, codeDeadlineExceeded)
	}
	snap := s.Registry().Snapshot()
	if n := snap.Counters["serve.http.deadline_exceeded"]; n != 1 {
		t.Errorf("serve.http.deadline_exceeded = %d, want 1", n)
	}
	if n := snap.Counters["eval.approx.canceled"]; n < 1 {
		t.Errorf("eval.approx.canceled = %d, want >= 1", n)
	}
}
