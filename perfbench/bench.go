package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"treesketch/internal/obs"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sizes    sizes
	clients  int // closed-loop workers of the serving workloads
}

// setups is how many times a run stands the program up; setup_s is the
// median.
const setups = 7

// workload is one set of inputs the benchmark runs.
type workload interface {
	// prepare makes the inputs from cfg: documents as XML bytes, query
	// strings, the seeded operation order, and ground truth for the
	// accuracy probe. It runs before set-up and is not timed.
	prepare(cfg config) error
	// datasets are the documents every set-up stands up; live selects tier
	// stacks over static synopses.
	datasets() (ds []dataset, live bool)
	// workers is the number of closed-loop workers of the timed phase.
	workers() int
	// stream is the number of distinct operations the workload holds, 0
	// when it has no end. A timed phase never runs operation stream() or
	// later, so no operation is sent twice.
	stream() int
	// refOps is the operation count projected_heap_mb is reported at.
	refOps() int
	// start binds the workload to e.st, the stack of the timed phase, and
	// runs its untimed warm-up.
	start(e *env) error
	// do runs operation i of the timed phase and returns its latency in
	// milliseconds, +Inf when it failed. tr is nil outside a traced phase.
	do(e *env, wk *worker, i int, tr *obs.Trace) float64
	// verify runs the checks that follow the timed phase and returns the
	// mean relative selectivity error of the program's answers, in percent.
	verify(e *env) (float64, error)
	// probes are the accuracy probe, which the allocation passes of a
	// traced run replay.
	probes() []probeItem
}

// env is the state one run shares across its phases.
type env struct {
	cfg    config
	reg    *obs.Registry // Options.Metrics of everything the run stands up
	st     *stack        // the stack of the timed phase
	client *client
	tracer *tracer // nil in an untraced run

	checks   issues // wrong outputs: the run is not correct
	failures issues // failed or refused operations

	classes     int // stable classes of the first document
	sketchBytes int // synopsis size of the first dataset
}

// worker is the per-goroutine state of a closed-loop client.
type worker struct {
	buf bytes.Buffer
}

// issues counts problems and keeps the first few messages.
type issues struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (s *issues) add(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if len(s.first) < 10 {
		s.first = append(s.first, fmt.Sprintf(format, args...))
	}
}

func (s *issues) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// phase is one timed phase: every operation's latency plus the runtime's
// view of the same interval.
type phase struct {
	ms        []float64 // per-operation latency, +Inf for a failed one
	ops       []int     // the operation index of each latency
	failed    int
	elapsed   time.Duration
	next      int     // index of the first operation after the phase
	exhausted bool    // the phase ended because the stream ran out
	alloc     float64 // bytes allocated during the phase
	retained  float64 // live heap after the phase minus before, both after a GC
	heapStart float64 // live heap before the phase
	heapEnd   float64 // live heap after the phase
	gcs       int
	pauses    []float64 // GC pauses during the phase, ms
}

// measure runs operations first, first+1, ... on w.workers() closed-loop
// workers until d has passed or operation end is due (end 0: no end), then
// waits for the operations in flight. Each worker sends its next operation
// as soon as the previous one is answered. In a traced phase every
// operation gets its own obs.Trace.
func (e *env) measure(w workload, first, end int, d time.Duration, traced bool) phase {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	n := w.workers()
	per := make([][]float64, n)
	idx := make([][]int, n)
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			wk := &worker{}
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if end > 0 && i >= end {
					return
				}
				var tr *obs.Trace
				if traced {
					tr = obs.NewTrace(e.cfg.workload)
				}
				per[c] = append(per[c], w.do(e, wk, i, tr))
				idx[c] = append(idx[c], i)
			}
		}(c)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start), next: int(next.Load())}
	if end > 0 && p.next >= end {
		p.next, p.exhausted = end, true
	}

	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	// The latency records are the benchmark's, not the program's: their
	// bytes do not count as retained.
	var records float64
	for c := range per {
		records += float64(8*cap(per[c]) + 8*cap(idx[c]))
		p.ms = append(p.ms, per[c]...)
		p.ops = append(p.ops, idx[c]...)
	}
	for _, v := range p.ms {
		if math.IsInf(v, 1) {
			p.failed++
		}
	}
	p.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	p.retained = float64(m2.HeapAlloc) - float64(m0.HeapAlloc) - records
	p.heapStart = float64(m0.HeapAlloc)
	p.heapEnd = float64(m2.HeapAlloc)
	p.gcs = int(m1.NumGC - m0.NumGC)
	for g := m0.NumGC + 1; g <= m1.NumGC; g++ {
		if m1.NumGC-g < uint32(len(m1.PauseNs)) {
			p.pauses = append(p.pauses, float64(m1.PauseNs[(g+255)%256])/1e6)
		}
	}
	return p
}

// ok is the number of operations that succeeded.
func (p phase) ok() int { return len(p.ms) - p.failed }

// value is one reported metric with the number of samples behind it.
type value struct {
	v    float64
	n    int
	note string
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, each reported on every
// workload. BENCHMARK.json lists the same names and units.
//
// projected_heap_mb is the live heap after a GC once the program has run
// w.refOps() operations: the heap before the timed phase plus what the
// phase retained per operation times refOps. It is what a leak grows, and
// unlike retained bytes per operation it never reads 0 once a leak is
// fixed. A failed operation enters the latencies as +Inf and also fails the
// run: every workload is one on which no operation should fail.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"alloc_bytes_per_op", "B"},
	{"projected_heap_mb", "MB"},
	{"sel_mre_pct", "%"},
}

// report is what a run prints.
type report struct {
	result   result
	lines    []string
	problems []string // failed checks and operations
	notes    []string
	tracer   *tracer
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload: prepare its inputs, stand the program up
// setups times, warm up, time one phase, verify. A traced run splits the
// time into an untraced and a traced phase of equal length.
func run(cfg config) (*report, error) {
	w, ok := newWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err := w.prepare(cfg); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", cfg.workload, err)
	}
	e := &env{cfg: cfg, reg: obs.NewRegistry()}
	if cfg.traced {
		e.tracer = newTracer()
	}
	setup, err := e.setUp(w)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defer e.st.close()
	e.client = newClient(w.workers())
	defer e.client.close()
	if err := w.start(e); err != nil {
		return nil, fmt.Errorf("%s: start: %w", cfg.workload, err)
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	end := w.stream()
	var a, b phase
	if cfg.traced {
		a = e.measure(w, 0, end/2, d/2, false)
		b = e.measure(w, a.next, end, d/2, true)
	} else {
		a = e.measure(w, 0, end, d, false)
	}
	mre, err := w.verify(e)
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", cfg.workload, err)
	}

	ops := float64(len(a.ms))
	var sent string
	if end > 0 {
		sent = fmt.Sprintf("%d of %d distinct operations sent, none twice", a.next, end)
	}
	defs, vals := endToEnd, map[string]value{
		"setup_s":            {v: median(setup), n: len(setup)},
		"ops_per_s":          {v: float64(a.ok()) / a.elapsed.Seconds(), n: a.ok(), note: sent},
		"p50_ms":             {v: median(a.ms), n: len(a.ms)},
		"alloc_bytes_per_op": {v: ratio(a.alloc, ops), n: len(a.ms)},
		"projected_heap_mb": {
			v:    (a.heapStart + ratio(a.retained, ops)*float64(w.refOps())) / 1e6,
			n:    len(a.ms),
			note: fmt.Sprintf("at %d operations: %.1f MB before the phase, %.0f B retained per operation", w.refOps(), a.heapStart/1e6, ratio(a.retained, ops)),
		},
		"sel_mre_pct": {v: mre, n: len(w.probes())},
	}
	tv, pct := tail(sorted(a.ms))
	vals["tail_ms"] = value{v: tv, n: len(a.ms), note: fmt.Sprintf("p%.1f", pct)}
	if cfg.traced {
		defs, vals = perLayer, e.layerValues(w, a, b)
	}

	failed := a.failed + b.failed
	rep := &report{
		result: result{
			Correct:   e.checks.count() == 0 && failed == 0,
			Attempted: len(a.ms) + len(b.ms),
			Failed:    failed,
			Metrics:   make(map[string]metric, len(defs)),
		},
		tracer:   e.tracer,
		problems: e.checks.first,
	}
	for _, f := range e.failures.first {
		rep.problems = append(rep.problems, "operation failed: "+f)
	}
	if a.exhausted || b.exhausted {
		rep.notes = append(rep.notes, fmt.Sprintf("the stream of %d distinct operations ran out before %v had passed; the timed phase ended early", end, d))
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", d.name)
		}
		rep.result.Metrics[d.name] = metric{Value: finite(v.v), Unit: d.unit}
		line := fmt.Sprintf("perfbench: %-34s %16.6g %-6s n=%d", d.name, v.v, d.unit, v.n)
		if v.note != "" {
			line += " " + v.note
		}
		rep.lines = append(rep.lines, line)
	}
	return rep, nil
}

// setUp stands the workload's datasets up setups times, closing each stack
// before the next, and keeps the last one for the timed phase. It returns
// the set-up times in seconds.
func (e *env) setUp(w workload) ([]float64, error) {
	ds, live := w.datasets()
	secs := make([]float64, 0, setups)
	for k := 0; k < setups; k++ {
		if e.st != nil {
			e.st.close()
			e.st = nil
		}
		runtime.GC()
		var tr *obs.Trace
		if e.tracer != nil {
			tr = obs.NewTrace("setup")
		}
		st, d, err := standUp(e.reg, ds, live, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		e.tracer.aux(tr)
		e.st = st
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
