package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"treesketch/internal/datagen"
	"treesketch/internal/obs"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
	"treesketch/internal/xmltree"
)

// testSizes shrink every workload to a few thousand elements, with budgets
// small enough that every synopsis is compressed.
var testSizes = sizes{
	buildElems:  3000,
	buildKB:     1,
	buildProbe:  20,
	hotElems:    3000,
	hotKB:       1,
	hotPool:     16,
	coldElems:   3000,
	coldKB:      1,
	coldDraws:   400,
	coldProbe:   20,
	liveElems:   3000,
	liveKB:      1,
	livePool:    16,
	maxProto:    16,
	updateEvery: 5,
}

func testConfig(name string, traced bool) config {
	return config{workload: name, seed: 7, seconds: 0.2, traced: traced, sizes: testSizes, clients: 2}
}

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !sameSet(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func sameSet(a, b []string) bool {
	seen := make(map[string]int)
	for _, s := range a {
		seen[s]++
	}
	for _, s := range b {
		seen[s]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestBenchmarkFile(t *testing.T) {
	b := readBenchmark(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)

	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
		if fi, err := os.Stat(filepath.Join("..", p)); err != nil || !fi.IsDir() {
			t.Errorf("path %q is not a directory", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}

	names := make(map[string]bool)
	use := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if names[n] {
			t.Errorf("name %q used twice", n)
		}
		names[n] = true
	}
	var wls []string
	for _, w := range b.Workloads {
		use(w.Name)
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(wls, workloadNames) {
		t.Errorf("workloads %v, program has %v", wls, workloadNames)
	}

	var e2e, layers []metricDef
	setup := false
	for _, m := range b.EndToEnd {
		use(m.Name)
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if !(m.Bound >= 0 && m.Bound <= 0.25) {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error(`no end-to-end "setup_s" in s, lower is better`)
	}
	for _, m := range b.PerLayer {
		use(m.Name)
		layers = append(layers, metricDef{m.Name, m.Unit})
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer %v, program reports %v", layers, perLayer)
	}
}

// TestWorkloadsReportListedMetrics runs every workload at a shrunken size,
// untraced and traced, and requires a correct result carrying exactly the
// metrics BENCHMARK.json lists for that mode.
func TestWorkloadsReportListedMetrics(t *testing.T) {
	b := readBenchmark(t)
	units := func(traced bool) map[string]string {
		out := make(map[string]string)
		if traced {
			for _, m := range b.PerLayer {
				out[m.Name] = m.Unit
			}
			return out
		}
		for _, m := range b.EndToEnd {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := run(testConfig(name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			r := rep.result
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d, problems %v",
					name, traced, r.Correct, r.Attempted, r.Failed, rep.problems)
			}
			got := make(map[string]string)
			for k, m := range r.Metrics {
				got[k] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", name, k, m.Value)
				}
			}
			if want := units(traced); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json lists %v", name, traced, got, want)
			}
			if !traced {
				for _, m := range b.EndToEnd {
					if r.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end %s reads 0", name, m.Name)
					}
				}
				continue
			}
			if len(rep.tracer.kept) == 0 {
				t.Errorf("%s: traced run kept no traces", name)
			}
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			if err := rep.tracer.writeFile(path); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := bytes.Cut(raw, []byte("\n"))
			var s obs.TraceSnapshot
			if err := json.Unmarshal(first, &s); err != nil || len(s.Spans) == 0 {
				t.Errorf("%s: first trace line %q: %v", name, first, err)
			}
		}
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 1}, {2, 1}, {10, 5}, {19, 10}, {20, 10}, {21, 11},
		{50, 40}, {100, 90}, {999, 989}, {1000, 990}, {1001, 991}, {2000, 1980},
	} {
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.want)
		}
		if k := tailRank(c.n); c.n >= 20 && c.n-k < 10 {
			t.Errorf("tailRank(%d) = %d leaves %d samples beyond", c.n, k, c.n-k)
		}
	}

	// A failed operation is +Inf: ten of them sit beyond p99 of 1000 and
	// leave it finite; an eleventh reaches it.
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	for i := 990; i < 1000; i++ {
		lat[i] = math.Inf(1)
	}
	if v, pct := tail(sorted(lat)); v != 990 || pct != 99 {
		t.Errorf("tail with 10 failures = %v at p%v, want 990 at p99", v, pct)
	}
	lat[989] = math.Inf(1)
	if v, _ := tail(sorted(lat)); !math.IsInf(v, 1) {
		t.Errorf("tail with 11 failures = %v, want +Inf", v)
	}
	if got := finite(math.Inf(1)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v", got)
	}
	if got := median([]float64{3, 1, math.Inf(1), 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// startTest prepares a shrunken workload and stands it up once.
func startTest(t *testing.T, name string) (workload, *env) {
	t.Helper()
	cfg := testConfig(name, false)
	w, _ := newWorkload(name)
	if err := w.prepare(cfg); err != nil {
		t.Fatal(err)
	}
	e := &env{cfg: cfg, reg: obs.NewRegistry()}
	ds, live := w.datasets()
	st, _, err := standUp(e.reg, ds, live, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.st = st
	t.Cleanup(st.close)
	e.client = newClient(w.workers())
	t.Cleanup(e.client.close)
	if err := w.start(e); err != nil {
		t.Fatal(err)
	}
	if n := e.checks.count(); n != 0 {
		t.Fatalf("%d checks failed before any corruption: %v", n, e.checks.first)
	}
	return w, e
}

func TestCorruptedSelectivityFailsCheck(t *testing.T) {
	w, e := startTest(t, "estimate-hot")
	hot := w.(*estimateWorkload)
	i := 0
	for hot.zipf.rank(unit(mix(hot.cfg.seed, i))) != 0 {
		i++
	}
	wk := &worker{}
	hot.do(e, wk, i, nil)
	if n := e.checks.count(); n != 0 {
		t.Fatalf("a correct answer failed: %v", e.checks.first)
	}
	hot.items[0].want = math.Nextafter(hot.items[0].want, math.Inf(1))
	hot.do(e, wk, i, nil)
	if e.checks.count() != 1 {
		t.Errorf("an answer one ulp off the expected selectivity passed")
	}
	hot.probe[0].want *= 2
	e.probePass(hot.probe[:1])
	if e.checks.count() != 2 {
		t.Errorf("a corrupted probe expectation passed")
	}
}

func TestCorruptedFingerprintFailsCheck(t *testing.T) {
	w, e := startTest(t, "build")
	b := w.(*buildWorkload)
	wk := &worker{}
	b.do(e, wk, 0, nil)
	b.do(e, wk, 1, nil)
	if n := e.checks.count(); n != 0 {
		t.Fatalf("identical builds failed: %v", e.checks.first)
	}
	b.fp ^= 1
	b.do(e, wk, 2, nil)
	if e.checks.count() != 1 {
		t.Errorf("a build with a different fingerprint passed")
	}
	// The decoded synopsis no longer matches the recorded fingerprint.
	if _, err := b.verify(e); err != nil {
		t.Fatal(err)
	}
	if e.checks.count() != 2 {
		t.Errorf("a decoded synopsis with a different fingerprint passed: %v", e.checks.first)
	}
}

// TestUpdateScriptReplays replays the live-mixed update script on a
// Synchronous tier stack: no update may be rejected, the same seed must
// give the same script, and deleting what the script holds must leave a
// stack whose compacted base matches a rebuild of the original document.
func TestUpdateScriptReplays(t *testing.T) {
	xml, t0, err := doc(datagen.XMark, 3000)
	if err != nil {
		t.Fatal(err)
	}
	replay := func() []scriptUpdate {
		s, err := newScript(t0, 11, 16)
		if err != nil {
			t.Fatal(err)
		}
		d, err := xmltree.Parse(bytes.NewReader(xml))
		if err != nil {
			t.Fatal(err)
		}
		stk, err := tier.New(d, tier.Options{BudgetBytes: 4 << 10, MinCompactElems: 64, Synchronous: true, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		sh := &shadow{stk: stk}
		for k := 0; k < 400; k++ {
			u := s.next()
			oid, err := sh.apply(u)
			if err != nil {
				t.Fatalf("update %d %+v rejected: %v", k, u, err)
			}
			s.answered(u, oid, true)
		}
		for _, oid := range s.held {
			if err := stk.Delete(oid); err != nil {
				t.Fatalf("delete held subtree %d: %v", oid, err)
			}
		}
		stk.Compact()
		if got, want := stk.Doc().Size(), t0.Size(); got != want {
			t.Errorf("document has %d elements after the cleanup, want %d", got, want)
		}
		oracle := tier.CompactSketch(stable.Build(t0), 4<<10, 0, obs.NewRegistry())
		if got, want := stk.View().Base.Fingerprint(), oracle.Fingerprint(); got != want {
			t.Errorf("compacted base %016x, rebuild of the original %016x", got, want)
		}
		return s.applied
	}
	a, b := replay(), replay()
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different scripts")
	}
	inserts := 0
	for _, u := range a {
		if u.insert {
			inserts++
		}
	}
	if inserts == 0 || inserts == len(a) {
		t.Errorf("%d inserts among %d updates", inserts, len(a))
	}
}

// TestColdStreamSentOnce gives estimate-cold's timed phase far more time
// than its shrunken stream lasts: the phase must end when the stream runs
// out, having sent every query exactly once.
func TestColdStreamSentOnce(t *testing.T) {
	w, e := startTest(t, "estimate-cold")
	cold := w.(*estimateWorkload)
	n := w.stream()
	if n != len(cold.items) {
		t.Fatalf("stream of %d operations over %d distinct queries", n, len(cold.items))
	}
	p := e.measure(w, 0, n, time.Minute, false)
	if !p.exhausted || p.next != n || len(p.ms) != n || p.elapsed >= time.Minute {
		t.Fatalf("phase of %d operations in %v (exhausted %v, next %d), want all %d",
			len(p.ms), p.elapsed, p.exhausted, p.next, n)
	}
	sent := make(map[string]bool, n)
	for _, i := range p.ops {
		it := cold.items[cold.order[i]]
		key := it.ds + "\x00" + it.text
		if sent[key] {
			t.Fatalf("%s %s sent twice", it.ds, it.text)
		}
		sent[key] = true
	}
	if p.failed != 0 || e.checks.count() != 0 {
		t.Errorf("%d failed operations, checks %v", p.failed, e.checks.first)
	}
}
