package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// populated builds a registry with one metric of every kind, on a frozen
// clock for the windowed histogram.
func populated(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.Counter("serve.http.requests").Add(42)
	r.Gauge("serve.http.inflight").Set(3)
	// A span timer with observations in two buckets.
	r.timer("serve.request.handle").Observe(0.250)
	r.timer("serve.request.handle").Observe(0.001)
	h := r.Histogram("eval.approx.nodes")
	for _, v := range []float64{1, 2, 4, 8} {
		h.Observe(v)
	}
	w := r.Windowed("serve.request.latency_seconds")
	for i := 0; i < 100; i++ {
		w.Observe(0.010)
	}
	w.Observe(0.080) // a tail outlier
	return r
}

func TestWriteOpenMetrics(t *testing.T) {
	var b strings.Builder
	if err := populated(t).WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("exposition must end with # EOF, got tail %q", out[max(0, len(out)-40):])
	}
	for _, want := range []string{
		"# TYPE serve_http_requests counter\nserve_http_requests_total 42\n",
		"serve_http_inflight 3\n",
		"# TYPE serve_request_handle_seconds histogram\n",
		"serve_request_handle_seconds_count 2\n",
		"serve_request_handle_seconds_sum 0.251\n",
		"# TYPE eval_approx_nodes histogram\n",
		"serve_request_latency_seconds_window_seconds 60\n",
		"# TYPE serve_request_latency_seconds_p50 gauge\n",
		"# TYPE serve_request_latency_seconds_p99 gauge\n",
		"# TYPE serve_request_latency_seconds_per_sec gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	if strings.Contains(out, " summary\n") {
		t.Error("exposition must carry no summary family")
	}
	checkCumulative(t, out, "eval_approx_nodes", 4)
	checkCumulative(t, out, "serve_request_handle_seconds", 2)

	// The windowed rate is count over the window span.
	if !strings.Contains(out, "serve_request_latency_seconds_per_sec "+promFloat(101.0/60)) {
		t.Errorf("missing per_sec sample in:\n%s", out)
	}
}

func TestOpenMetricsWindowQuantiles(t *testing.T) {
	r := NewRegistry()
	w := r.Windowed("serve.request.latency_seconds")
	for i := 0; i < 99; i++ {
		w.Observe(0.010)
	}
	for i := 0; i < 99; i++ {
		w.Observe(1.5)
	}
	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	p50 := sampleValue(t, b.String(), "serve_request_latency_seconds_p50")
	p99 := sampleValue(t, b.String(), "serve_request_latency_seconds_p99")
	if p50 >= 1 {
		t.Errorf("p50 = %v, want below the slow mode", p50)
	}
	if p99 < 1 || p99 > 2 {
		t.Errorf("p99 = %v, want within the slow mode", p99)
	}
}

// TestOpenMetricsColdWindow pins the cold-start scrape contract: a windowed
// histogram with zero observations must not leak NaN quantiles (strict
// OpenMetrics parsers reject "NaN" as a sample value). The _p50/_p99
// families are omitted entirely — absent metric, the Prometheus idiom for
// "no data yet" — while the structural families (window span, rate, the
// histogram itself) still expose.
func TestOpenMetricsColdWindow(t *testing.T) {
	r := NewRegistry()
	r.Windowed("serve.request.latency_seconds") // registered, never observed
	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Every sample value must be a finite float; the "+Inf" inside the
	// histogram's le-label is the one legitimate appearance of Inf.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		val := line[strings.LastIndexByte(line, ' ')+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Errorf("unparseable sample value in %q: %v", line, err)
			continue
		}
		if v != v || v > 1e300 || v < -1e300 {
			t.Errorf("non-finite sample leaked: %q", line)
		}
	}
	for _, absent := range []string{
		"serve_request_latency_seconds_p50",
		"serve_request_latency_seconds_p99",
	} {
		if strings.Contains(out, absent) {
			t.Errorf("empty window must omit the %s family:\n%s", absent, out)
		}
	}
	for _, want := range []string{
		"serve_request_latency_seconds_window_seconds 60\n",
		"serve_request_latency_seconds_per_sec 0\n",
		"serve_request_latency_seconds_count 0\n",
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cold scrape missing %q:\n%s", want, out)
		}
	}

	// One observation flips the quantile families back on.
	r.Windowed("serve.request.latency_seconds").Observe(0.010)
	b.Reset()
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE serve_request_latency_seconds_p50 gauge\n") {
		t.Errorf("warm window lost its p50 family:\n%s", b.String())
	}
}

// checkCumulative asserts that histogram family fam has at least two
// finite buckets, that its bucket counts are cumulative, and that they are
// capped by a "+Inf" bucket holding the total count.
func checkCumulative(t *testing.T, exposition, fam string, total int64) {
	t.Helper()
	var lastCum int64 = -1
	finite, infSeen := 0, false
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, fam+"_bucket{") {
			continue
		}
		_, val, _ := strings.Cut(line, "} ")
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if n < lastCum {
			t.Errorf("%s bucket counts not cumulative: %q after %d", fam, line, lastCum)
		}
		lastCum = n
		if !strings.Contains(line, `le="+Inf"`) {
			finite++
			continue
		}
		infSeen = true
		if n != total {
			t.Errorf("%s +Inf bucket = %d, want total count %d", fam, n, total)
		}
	}
	if !infSeen || finite < 2 {
		t.Errorf("%s: %d finite buckets, +Inf bucket seen %v; want >= 2 and true", fam, finite, infSeen)
	}
}

// sampleValue extracts one unlabeled sample from an exposition.
func sampleValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no sample named %s in:\n%s", name, exposition)
	return 0
}

func TestDebugMuxEndpoints(t *testing.T) {
	r := populated(t)
	rec := NewFlightRecorder(4)
	tr := NewTrace("//slow/query")
	tr.StartSpan("eval.plan").End()
	tr.Finish()
	rec.Record(tr)
	mux := DebugMux(r, rec)

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
		return w
	}

	if w := get("/metrics"); w.Header().Get("Content-Type") != OpenMetricsContentType {
		t.Errorf("/metrics content type = %q", w.Header().Get("Content-Type"))
	} else if !strings.Contains(w.Body.String(), "serve_http_requests_total 42") {
		t.Error("/metrics missing counter sample")
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/debug/obs").Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/obs not JSON: %v", err)
	}
	if snap.Counters["serve.http.requests"] != 42 {
		t.Errorf("/debug/obs counters = %v", snap.Counters)
	}
	if snap.Windows["serve.request.latency_seconds"].Count != 101 {
		t.Errorf("/debug/obs windows = %v", snap.Windows)
	}

	if body := get("/debug/obs/text").Body.String(); !strings.Contains(body, "serve.http.requests 42") {
		t.Errorf("/debug/obs/text missing flat sample:\n%s", body)
	}

	var traces []TraceSnapshot
	if err := json.Unmarshal(get("/debug/obs/slow").Body.Bytes(), &traces); err != nil {
		t.Fatalf("/debug/obs/slow not JSON: %v", err)
	}
	if len(traces) != 1 || traces[0].Name != "//slow/query" {
		t.Errorf("/debug/obs/slow = %+v", traces)
	}

	var errs []string
	if err := json.Unmarshal(get("/debug/obs/errors").Body.Bytes(), &errs); err != nil {
		t.Fatalf("/debug/obs/errors not JSON: %v", err)
	}
	if len(errs) != 0 {
		t.Errorf("clean registry reported errors: %v", errs)
	}

	if body := get("/debug/pprof/").Body.String(); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index looks wrong")
	}
}

// TestDebugMuxSlowDatasetFilter checks the per-tenant flight-recorder view:
// ?dataset= keeps only traces labeled with that dataset.
func TestDebugMuxSlowDatasetFilter(t *testing.T) {
	rec := NewFlightRecorder(8)
	for _, ds := range []string{"imdb", "xmark", "imdb"} {
		tr := NewTrace("//q/" + ds)
		tr.SetLabel("dataset", ds)
		tr.Finish()
		rec.Record(tr)
	}
	mux := DebugMux(NewRegistry(), rec)
	slow := func(path string) []TraceSnapshot {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		var traces []TraceSnapshot
		if err := json.Unmarshal(w.Body.Bytes(), &traces); err != nil {
			t.Fatalf("GET %s not JSON: %v", path, err)
		}
		return traces
	}
	if got := slow("/debug/obs/slow"); len(got) != 3 {
		t.Errorf("unfiltered slow log has %d traces, want 3", len(got))
	}
	imdb := slow("/debug/obs/slow?dataset=imdb")
	if len(imdb) != 2 {
		t.Fatalf("dataset=imdb kept %d traces, want 2", len(imdb))
	}
	for _, tr := range imdb {
		if tr.Labels["dataset"] != "imdb" {
			t.Errorf("filtered trace has labels %v", tr.Labels)
		}
	}
	if got := slow("/debug/obs/slow?dataset=nope"); len(got) != 0 {
		t.Errorf("dataset=nope kept %d traces, want 0", len(got))
	}
}

// TestDebugMuxNilRecorder pins the embedding contract: a mux without a
// flight recorder serves an empty JSON array, not null.
func TestDebugMuxNilRecorder(t *testing.T) {
	mux := DebugMux(NewRegistry(), nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/debug/obs/slow", nil))
	if got := strings.TrimSpace(w.Body.String()); got != "[]" {
		t.Errorf("/debug/obs/slow with nil recorder = %q, want []", got)
	}
}
