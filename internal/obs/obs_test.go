package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.counter")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGaugeConcurrentSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test.gauge")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.SetMax(int64(w*1000 + i))
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 7999 {
		t.Fatalf("gauge max = %d, want 7999", got)
	}
}

func TestGaugeAddSet(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test.gauge2")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.hist")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perWorker; i++ {
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	wantSum := float64(workers) * perWorker * (perWorker + 1) / 2
	if got := h.Sum(); math.Abs(got-wantSum) > wantSum*1e-9 {
		t.Fatalf("sum = %g, want %g", got, wantSum)
	}
	if h.Min() != 1 || h.Max() != perWorker {
		t.Fatalf("min/max = %g/%g, want 1/%d", h.Min(), h.Max(), perWorker)
	}
	var bucketTotal int64
	for i := range h.buckets {
		bucketTotal += h.buckets[i].Load()
	}
	if bucketTotal != workers*perWorker {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*perWorker)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      float64
		lo, hi float64
	}{
		{1, 1, 2},
		{1.5, 1, 2},
		{2, 2, 4},
		{1024, 1024, 2048},
		{0.25, 0.25, 0.5},
	}
	for _, c := range cases {
		i := bucketIndex(c.v)
		lo, hi := bucketBounds(i)
		if lo != c.lo || hi != c.hi {
			t.Errorf("bucketBounds(bucketIndex(%g)) = [%g, %g), want [%g, %g)", c.v, lo, hi, c.lo, c.hi)
		}
	}
	if bucketIndex(0) != 0 || bucketIndex(-3) != 0 {
		t.Error("zero and negative observations must land in bucket 0")
	}
	// Out-of-range magnitudes clamp into the first/last finite buckets.
	if bucketIndex(math.Ldexp(1, -100)) != 1 {
		t.Error("tiny values must clamp to the first finite bucket")
	}
	if bucketIndex(math.Ldexp(1, 100)) != histNumBuckets-1 {
		t.Error("huge values must clamp to the last bucket")
	}
}

// TestTimerSpan pins a registry span: End observes its duration into the
// timer histogram of its name, and the snapshot's timer view matches that
// histogram's count, sum, extrema and buckets.
func TestTimerSpan(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("test.phase")
	time.Sleep(2 * time.Millisecond)
	d := sp.End()
	r.timer("test.phase").Observe(100)
	h := r.timer("test.phase")
	if h.Count() != 2 || h.Min() != d.Seconds() || h.Max() != 100 {
		t.Fatalf("timer count/min/max = %d/%g/%g, span returned %v", h.Count(), h.Min(), h.Max(), d)
	}
	if d < 2*time.Millisecond {
		t.Fatalf("span returned %v, want >= 2ms", d)
	}
	want := snapshotHistogram(h)
	got := r.Snapshot().Timers["test.phase"]
	if got.Count != want.Count || got.TotalSeconds != want.Sum || got.MinSeconds != want.Min ||
		got.MaxSeconds != want.Max || !reflect.DeepEqual(got.Buckets, want.Buckets) || len(got.Buckets) != 2 {
		t.Fatalf("timer snapshot %+v does not match its histogram %+v", got, want)
	}
}

// TestZeroSpan pins the inert span: End returns 0 and records into no
// registry.
func TestZeroSpan(t *testing.T) {
	before := len(Default().Snapshot().Timers)
	var zero Span
	if zero.End() != 0 {
		t.Fatal("zero span must be a no-op")
	}
	if after := len(Default().Snapshot().Timers); after != before {
		t.Fatalf("zero span changed the default registry's timers: %d -> %d", before, after)
	}
}

// TestTimerConcurrent ends spans of one name from many goroutines (run
// under -race): the timer counts every one exactly.
func TestTimerConcurrent(t *testing.T) {
	r := NewRegistry()
	tr := r.NewTrace("q")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.StartSpan("test.phase").End()
				tr.StartSpan("test.phase").End()
			}
		}()
	}
	wg.Wait()
	ts := r.Snapshot().Timers["test.phase"]
	var inBuckets int64
	for _, b := range ts.Buckets {
		inBuckets += b.Count
	}
	if ts.Count != 1600 || inBuckets != 1600 {
		t.Fatalf("count = %d, bucket total = %d, want 1600", ts.Count, inBuckets)
	}
	if len(tr.Snapshot().Spans) != 800 {
		t.Fatalf("trace kept %d spans, want 800", len(tr.Snapshot().Spans))
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter must return a stable instance per name")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("Gauge must return a stable instance per name")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Error("Histogram must return a stable instance per name")
	}
	if r.timer("a") != r.timer("a") {
		t.Error("timer must return a stable instance per name")
	}
	if Or(nil) != Default() {
		t.Error("Or(nil) must be the default registry")
	}
	if Or(r) != r {
		t.Error("Or(r) must be r")
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("shared").Inc()
				r.Histogram("shared.h").Observe(1)
				r.Gauge("shared.g").SetMax(int64(i))
				r.StartSpan("shared.t").End()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("pkg.sub.count").Add(42)
	r.Gauge("pkg.sub.depth").Set(7)
	r.Histogram("pkg.sub.ratio").Observe(0.5)
	r.Histogram("pkg.sub.ratio").Observe(3)
	// Extreme observations land in the zero/negative and clamp buckets,
	// whose bounds must still be JSON-encodable.
	r.Histogram("pkg.sub.extreme").Observe(0)
	r.Histogram("pkg.sub.extreme").Observe(math.Ldexp(1, 60))
	r.timer("pkg.sub.phase").Observe(0.005)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot did not round-trip:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Counters["pkg.sub.count"] != 42 || got.Gauges["pkg.sub.depth"] != 7 {
		t.Fatalf("bad values after round-trip: %+v", got)
	}
	if hs := got.Histograms["pkg.sub.ratio"]; hs.Count != 2 || hs.Sum != 3.5 || hs.Min != 0.5 || hs.Max != 3 {
		t.Fatalf("bad histogram after round-trip: %+v", hs)
	}
	if ts := got.Timers["pkg.sub.phase"]; ts.Count != 1 || ts.TotalSeconds != 0.005 {
		t.Fatalf("bad timer after round-trip: %+v", ts)
	}
}

func TestWriteJSONFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b.c").Inc()
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["a.b.c"] != 1 {
		t.Fatalf("bad file contents: %+v", s)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(3)
	r.Counter("a.count").Add(1)
	r.Gauge("m.depth").Set(9)
	r.timer("p.phase").Observe(1)
	r.Histogram("h.vals").Observe(2)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"a.count 1\n", "z.count 3\n", "m.depth 9\n",
		"p.phase.count 1\n", "p.phase.total_seconds 1\n",
		"h.vals.count 1\n", "h.vals.sum 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Counters come out sorted.
	if strings.Index(out, "a.count") > strings.Index(out, "z.count") {
		t.Error("text output not sorted by name")
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Reset()
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("counter after reset = %d, want 0", got)
	}
	s := r.Snapshot()
	if len(s.Gauges) != 0 || len(s.Timers) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("snapshot after reset not empty: %+v", s)
	}
}

func TestProfileHelpers(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = math.Sqrt(float64(i))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile not written: %v", err)
	}
	heap := filepath.Join(dir, "heap.prof")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile not written: %v", err)
	}
}
