package serve

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"treesketch/internal/exp"
	"treesketch/internal/obs"
	"treesketch/internal/tier"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// newTestServer builds a Server over a small synthesized dataset and returns
// it with a workload query known to be parseable.
func newTestServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	r := exp.NewRunner(exp.Config{TXScale: 2000, WorkloadSize: 8, Seed: 1})
	sk, _ := tsbuild.Build(r.Stable("IMDB-TX"), tsbuild.Options{BudgetBytes: 10 << 10})
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	s := New(opts)
	s.AddSketch("imdb", sk)
	return s, r.Workload("IMDB-TX", 1, false)[0].Q.String()
}

func TestEstimateEndToEnd(t *testing.T) {
	s, q := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/estimate?dataset=imdb&q=" + urlQueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}
	var er EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.TraceID == "" || len(er.TraceID) != 16 {
		t.Errorf("trace_id = %q", er.TraceID)
	}
	if er.Dataset != "imdb" || er.Query == "" {
		t.Errorf("response = %+v", er)
	}
	if er.Selectivity < 0 || er.Seconds <= 0 {
		t.Errorf("selectivity/seconds = %v/%v", er.Selectivity, er.Seconds)
	}

	// The request must now be visible in the serving metrics and, having
	// been the slowest (and only) request, in the flight recorder.
	snap := s.Registry().Snapshot()
	if snap.Counters["serve.http.requests"] != 1 {
		t.Errorf("request counter = %d", snap.Counters["serve.http.requests"])
	}
	if w := snap.Windows["serve.request.latency_seconds"]; w.Count != 1 {
		t.Errorf("windowed latency count = %d", w.Count)
	}
	slow := s.FlightRecorder().Slowest()
	if len(slow) != 1 {
		t.Fatalf("flight recorder retained %d traces", len(slow))
	}
	spanNames := make(map[string]bool)
	for _, sp := range slow[0].Spans {
		spanNames[sp.Name] = true
	}
	for _, want := range []string{"serve.parse", "eval.plan", "eval.memo", "eval.emit", "serve.emit"} {
		if !spanNames[want] {
			t.Errorf("slow trace missing span %q (have %v)", want, slow[0].Spans)
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	s, q := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status := func(path string) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status("/estimate"); got != 400 {
		t.Errorf("missing q: status %d, want 400", got)
	}
	if got := status("/estimate?q=" + urlQueryEscape("//[broken")); got != 400 {
		t.Errorf("parse error: status %d, want 400", got)
	}
	if got := status("/estimate?dataset=nope&q=" + urlQueryEscape(q)); got != 404 {
		t.Errorf("unknown dataset: status %d, want 404", got)
	}
	// With exactly one dataset published, the dataset parameter is optional.
	if got := status("/estimate?q=" + urlQueryEscape(q)); got != 200 {
		t.Errorf("implicit dataset: status %d, want 200", got)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["serve.http.errors"] != 3 {
		t.Errorf("error counter = %d, want 3", snap.Counters["serve.http.errors"])
	}
	if snap.Counters["serve.http.not_found"] != 1 {
		t.Errorf("not_found counter = %d, want 1", snap.Counters["serve.http.not_found"])
	}
}

// TestEstimateQueryLengthCap: query text one byte over maxQueryBytes is
// refused with 400 query_too_long before a trace is made, and text at the
// cap is answered.
func TestEstimateQueryLengthCap(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(q string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/estimate?dataset=imdb&q=" + urlQueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, er.Code
	}
	atCap := "//" + strings.Repeat("a", maxQueryBytes-2)
	if status, code := get(atCap); status != 200 {
		t.Errorf("query at the %d-byte cap: status %d code %q, want 200", maxQueryBytes, status, code)
	}
	if status, code := get(atCap + "a"); status != 400 || code != codeQueryTooLong {
		t.Errorf("query one byte over the cap: status %d code %q, want 400 %s", status, code, codeQueryTooLong)
	}
	if n := len(s.FlightRecorder().Slowest()); n != 1 {
		t.Errorf("flight recorder holds %d traces, want only the answered request's", n)
	}
}

func TestEstimateDeadline(t *testing.T) {
	s, q := newTestServer(t, Options{Deadline: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/estimate?dataset=imdb&q=" + urlQueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status %d, want 503 under a 1ns deadline", resp.StatusCode)
	}
	if n := s.Registry().Snapshot().Counters["serve.http.deadline_exceeded"]; n != 1 {
		t.Errorf("deadline counter = %d, want 1", n)
	}
}

func TestMetricsExposition(t *testing.T) {
	s, q := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 5; i++ {
		resp, err := ts.Client().Get(ts.URL + "/estimate?dataset=imdb&q=" + urlQueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Errorf("content type = %q", ct)
	}
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := b.String()
	for _, want := range []string{
		"serve_http_requests_total 5",
		"serve_request_latency_seconds_p50 ",
		"serve_request_latency_seconds_p99 ",
		"serve_request_latency_seconds_per_sec ",
		"# EOF",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStageHistograms pins the per-stage distributions: on a fresh
// registry, one /estimate on a static dataset feeds each stage timer on its
// path once, one /update feeds the decode and absorb timers once, and
// /metrics renders the stages as histograms.
func TestStageHistograms(t *testing.T) {
	s, q := newTestServer(t, Options{})
	stk, err := tier.New(xmltree.MustCompact("r(a(b),a(b))"), tier.Options{Synchronous: true, Metrics: s.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	s.AddStack("live", stk)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getEstimate(t, ts, "/estimate?dataset=imdb&q="+urlQueryEscape(q))
	timers := s.Registry().Snapshot().Timers
	for _, stage := range []string{
		"serve.request.handle", "serve.parse", "eval.plan", "eval.memo",
		"eval.emit", "eval.approx.query", "serve.emit", "serve.encode",
	} {
		if got := timers[stage].Count; got != 1 {
			t.Errorf("after one /estimate, %s count = %d, want 1", stage, got)
		}
	}

	req := UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a(b)"}
	if code := postUpdate(t, ts, req, &UpdateResponse{}); code != 200 {
		t.Fatalf("update status %d", code)
	}
	timers = s.Registry().Snapshot().Timers
	for _, stage := range []string{"serve.decode", "serve.absorb"} {
		if got := timers[stage].Count; got != 1 {
			t.Errorf("after one /update, %s count = %d, want 1", stage, got)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "eval_memo_seconds_bucket{") {
		t.Error("/metrics carries no eval_memo_seconds histogram")
	}
}

func TestDatasetsAndCatalogSwap(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	if got := s.Datasets(); len(got) != 1 || got[0] != "imdb" {
		t.Fatalf("Datasets() = %v", got)
	}
	r := exp.NewRunner(exp.Config{TXScale: 2000, Seed: 1})
	sk, _ := tsbuild.Build(r.Stable("XMark-TX"), tsbuild.Options{BudgetBytes: 10 << 10})
	s.AddSketch("xmark", sk)
	if got := s.Datasets(); len(got) != 2 || got[0] != "imdb" || got[1] != "xmark" {
		t.Fatalf("after add, Datasets() = %v", got)
	}
	if g := s.Registry().Snapshot().Gauges["serve.catalog.sketches"]; g != 2 {
		t.Errorf("catalog gauge = %d, want 2", g)
	}
	// Two datasets published: an empty dataset parameter is now ambiguous.
	if _, _, ok := s.resolve("", false); ok {
		t.Error("empty dataset name should not resolve with two sketches")
	}
}

// urlQueryEscape is a tiny local alias to keep test call sites short.
func urlQueryEscape(s string) string { return url.QueryEscape(s) }
