package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/serve"
	"treesketch/internal/xmltree"
)

// perLayer are the metrics of a traced run, each reported on every
// workload; a layer a workload never reaches reports 0 in its counts,
// ratios and shares. BENCHMARK.json lists the same names and units.
//
// Span times come from the benchmark's own spans around the calls into each
// layer. An estimate is timed over HTTP ("http.roundtrip"), then replayed
// in-process: the server's handler through httptest ("serve.handler"),
// query.Parse ("query.parse"), the estimate ("eval.approx", or for a live
// dataset "tier.estimate" plus "eval.base" on the view's base alone) and
// the response encoding ("serve.encode"). Transport is the round trip
// minus the handler; the handler's self time is the handler minus parse,
// estimate and encoding. An update is timed over HTTP and absorbed again by
// a shadow tier stack ("tier.absorb"); serve.update_* are the POST /update
// round trips of the untraced phase. A build has one span per stage.
// The *_share_pct metrics split the traced operations' time (round trips,
// or builds) among the layers.
var perLayer = []metricDef{
	{"xmltree.parse_ms", "ms"},
	{"xmltree.parse_alloc_mb", "MB"},
	{"xmltree.share_pct", "%"},
	{"stable.build_ms", "ms"},
	{"stable.classes", "count"},
	{"stable.share_pct", "%"},
	{"tsbuild.build_ms", "ms"},
	{"tsbuild.create_pool_ms", "ms"},
	{"tsbuild.merge_loop_ms", "ms"},
	{"tsbuild.pair_evals", "count"},
	{"tsbuild.reevals", "count"},
	{"tsbuild.merges", "count"},
	{"tsbuild.stale_pop_ratio", "ratio"},
	{"tsbuild.share_pct", "%"},
	{"sketch.bytes", "B"},
	{"sketch.share_pct", "%"},
	{"query.parse_us_p50", "us"},
	{"query.share_pct", "%"},
	{"eval.approx_us_p50", "us"},
	{"eval.approx_us_p99", "us"},
	{"eval.embed_steps_per_query", "count"},
	{"eval.embeddings_per_query", "count"},
	{"eval.embed_memo_hits_per_query", "count"},
	{"eval.selmemo_hit_ratio", "ratio"},
	{"eval.plan_hit_ratio", "ratio"},
	{"eval.truncated_share", "ratio"},
	{"eval.alloc_bytes_per_query", "B"},
	{"eval.share_pct", "%"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p99", "us"},
	{"serve.self_us_p50", "us"},
	{"serve.encode_us_p50", "us"},
	{"serve.transport_us_p50", "us"},
	{"serve.alloc_bytes_per_req", "B"},
	{"serve.admission_queued_ratio", "ratio"},
	{"serve.share_pct", "%"},
	{"serve.transport_share_pct", "%"},
	{"serve.update_p50_ms", "ms"},
	{"serve.update_tail_ms", "ms"},
	{"tier.depth_mean", "count"},
	{"tier.compactions", "count"},
	{"tier.compacting_share", "ratio"},
	{"tier.delta_share_pct", "%"},
	{"tier.share_pct", "%"},
	{"runtime.gc_per_kop", "count"},
	{"runtime.gc_pause_p99_ms", "ms"},
	{"runtime.heap_mb_end", "MB"},
	{"runtime.retained_bytes_per_op", "B"},
	{"trace_overhead_pct", "%"},
}

// keepSpans bounds the spans written to the trace file: traces are kept in
// arrival order until their spans reach it. Every traced operation still
// counts toward the per-layer metrics.
const keepSpans = 100000

// tracer collects the traces of a traced run. Only aux may be called on
// the nil tracer of an untraced run; the other methods take a trace, which
// an untraced run never has.
type tracer struct {
	mu      sync.Mutex
	series  map[string][]float64 // samples by series name, in the name's unit
	layer   map[string]float64   // self seconds per layer over traced operations
	opSecs  float64              // seconds of the traced operations
	estSecs float64              // live estimates: seconds of the view's estimate
	deltaS  float64              // live estimates: the part spent on delta tiers
	kept    []obs.TraceSnapshot
	spans   int // spans in kept
}

func newTracer() *tracer {
	return &tracer{series: make(map[string][]float64), layer: make(map[string]float64)}
}

// spanSecs sums s's span durations by name, in seconds.
func spanSecs(s obs.TraceSnapshot) map[string]float64 {
	out := make(map[string]float64, len(s.Spans))
	for _, r := range s.Spans {
		out[r.Name] += r.Duration.Seconds()
	}
	return out
}

// keep retains s for the trace file. Callers hold t.mu.
func (t *tracer) keep(s obs.TraceSnapshot) {
	if t.spans < keepSpans {
		t.kept = append(t.kept, s)
		t.spans += len(s.Spans)
	}
}

// aux records a trace outside the timed phase (a set-up or a check): its
// parse and stable-build spans feed the build-stage series.
func (t *tracer) aux(tr *obs.Trace) {
	if t == nil {
		return
	}
	tr.Finish()
	s := tr.Snapshot()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range s.Spans {
		switch r.Name {
		case "xmltree.parse":
			t.series["xmltree.parse_ms"] = append(t.series["xmltree.parse_ms"], ms(r.Duration))
		case "stable.build":
			t.series["stable.build_ms"] = append(t.series["stable.build_ms"], ms(r.Duration))
		}
	}
	t.keep(s)
}

// build records one traced build of total duration took.
func (t *tracer) build(tr *obs.Trace, took time.Duration) {
	s := tr.Snapshot()
	d := spanSecs(s)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.series["xmltree.parse_ms"] = append(t.series["xmltree.parse_ms"], 1e3*d["xmltree.parse"])
	t.series["stable.build_ms"] = append(t.series["stable.build_ms"], 1e3*d["stable.build"])
	t.layer["xmltree"] += d["xmltree.parse"]
	t.layer["stable"] += d["stable.build"]
	t.layer["tsbuild"] += d["tsbuild.build"]
	t.layer["sketch"] += d["sketch.encode"]
	t.opSecs += took.Seconds()
	t.keep(s)
}

// estimate records one replayed estimate; op marks an operation of the
// timed phase, whose layer times make up the shares.
func (t *tracer) estimate(tr *obs.Trace, op bool) {
	s := tr.Snapshot()
	d := spanSecs(s)
	rt, h, p, enc := d["http.roundtrip"], d["serve.handler"], d["query.parse"], d["serve.encode"]
	est, base := d["eval.approx"], d["eval.approx"]
	if v, live := d["tier.estimate"]; live {
		est, base = v, d["eval.base"]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, v := range map[string]float64{
		"serve.handler_us":   h,
		"query.parse_us":     p,
		"eval.approx_us":     est,
		"serve.encode_us":    enc,
		"serve.transport_us": rt - h,
		"serve.self_us":      h - p - est - enc,
	} {
		t.series[name] = append(t.series[name], 1e6*v)
	}
	if op {
		t.layer["serve.transport"] += rt - h
		t.layer["serve"] += h - p - est
		t.layer["query"] += p
		t.layer["eval"] += base
		t.layer["tier"] += est - base
		t.opSecs += rt
		if _, live := d["tier.estimate"]; live {
			t.estSecs += est
			t.deltaS += est - base
		}
	}
	t.keep(s)
}

// update records one traced update: the shadow absorb is the tier layer,
// the rest of the round trip is the serving path.
func (t *tracer) update(tr *obs.Trace) {
	s := tr.Snapshot()
	d := spanSecs(s)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.layer["tier"] += d["tier.absorb"]
	t.layer["serve"] += d["http.roundtrip"] - d["tier.absorb"]
	t.opSecs += d["http.roundtrip"]
	t.keep(s)
}

// tierView records the tier shape a live estimate response reports.
func (t *tracer) tierView(v *serve.TierResponse) {
	compacting := 0.0
	if v.Compacting {
		compacting = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.series["tier.depth"] = append(t.series["tier.depth"], float64(v.Tiers))
	t.series["tier.compacting"] = append(t.series["tier.compacting"], compacting)
}

// writeFile writes the kept traces as JSON lines, one obs.TraceSnapshot
// per operation.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// layerValues computes the per-layer metrics of a traced run from the
// tracer, the run's registry, the untraced phase a and the traced phase b.
// It ends with untimed allocation passes over the accuracy probe.
func (e *env) layerValues(w workload, a, b phase) map[string]value {
	t := e.tracer
	snap := e.reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	builds := float64(snap.Timers["tsbuild.build"].Count)
	perBuild := func(timer string) float64 { return ratio(1e3*snap.Timers[timer].TotalSeconds, builds) }
	queries := c("eval.approx.queries")
	ser := func(name string) []float64 { return t.series[name] }
	p50 := func(name string) float64 { return median(ser(name)) }
	share := func(layer string) float64 { return 100 * ratio(t.layer[layer], t.opSecs) }
	mean := func(name string) float64 {
		var sum float64
		for _, v := range ser(name) {
			sum += v
		}
		return ratio(sum, float64(len(ser(name))))
	}
	ops := float64(len(a.ms))
	nb := int(builds)
	nq := int(queries)
	nest := len(ser("serve.handler_us"))
	nops := len(b.ms)

	// POST /update round trips of the untraced phase.
	var upd []float64
	if lw, ok := w.(*liveWorkload); ok {
		for j, i := range a.ops {
			if lw.isUpdate(i) {
				upd = append(upd, a.ms[j])
			}
		}
	}
	updTail, updPct := tail(sorted(upd))

	probes := w.probes()
	ds, _ := w.datasets()
	v := map[string]value{
		"xmltree.parse_ms":       {v: p50("xmltree.parse_ms"), n: len(ser("xmltree.parse_ms"))},
		"xmltree.parse_alloc_mb": {v: parseAlloc(ds[0].xml) / 1e6, n: 1},
		"xmltree.share_pct":      {v: share("xmltree"), n: nops},
		"stable.build_ms":        {v: p50("stable.build_ms"), n: len(ser("stable.build_ms"))},
		"stable.classes":         {v: float64(e.classes), n: 1},
		"stable.share_pct":       {v: share("stable"), n: nops},

		"tsbuild.build_ms":        {v: perBuild("tsbuild.build"), n: nb},
		"tsbuild.create_pool_ms":  {v: perBuild("tsbuild.create_pool"), n: nb},
		"tsbuild.merge_loop_ms":   {v: perBuild("tsbuild.merge_loop"), n: nb},
		"tsbuild.pair_evals":      {v: ratio(c("tsbuild.pool.pair_evals"), builds), n: nb},
		"tsbuild.reevals":         {v: ratio(c("tsbuild.pool.reevals"), builds), n: nb},
		"tsbuild.merges":          {v: ratio(c("tsbuild.merges"), builds), n: nb},
		"tsbuild.stale_pop_ratio": {v: ratio(c("tsbuild.heap.stale_pops"), c("tsbuild.heap.pushes")), n: nb},
		"tsbuild.share_pct":       {v: share("tsbuild"), n: nops},
		"sketch.bytes":            {v: float64(e.sketchBytes), n: 1},
		"sketch.share_pct":        {v: share("sketch"), n: nops},

		"query.parse_us_p50": {v: p50("query.parse_us"), n: nest},
		"query.share_pct":    {v: share("query"), n: nops},

		"eval.approx_us_p50":             {v: p50("eval.approx_us"), n: nest},
		"eval.approx_us_p99":             {v: rank(sorted(ser("eval.approx_us")), 0.99), n: nest},
		"eval.embed_steps_per_query":     {v: ratio(c("eval.approx.embed_steps"), queries), n: nq},
		"eval.embeddings_per_query":      {v: ratio(c("eval.approx.embeddings"), queries), n: nq},
		"eval.embed_memo_hits_per_query": {v: ratio(c("eval.approx.embed_memo_hits"), queries), n: nq},
		"eval.selmemo_hit_ratio":         {v: ratio(c("eval.approx.selmemo.hits"), c("eval.approx.selmemo.hits")+c("eval.approx.selmemo.misses")), n: nq},
		"eval.plan_hit_ratio":            {v: ratio(c("eval.approx.plan.hits"), c("eval.approx.plan.hits")+c("eval.approx.plan.misses")), n: nq},
		"eval.truncated_share":           {v: ratio(c("eval.approx.truncated"), queries), n: nq},
		"eval.alloc_bytes_per_query":     {v: e.evalAlloc(probes), n: len(probes)},
		"eval.share_pct":                 {v: share("eval"), n: nops},

		"serve.handler_us_p50":         {v: p50("serve.handler_us"), n: nest},
		"serve.handler_us_p99":         {v: rank(sorted(ser("serve.handler_us")), 0.99), n: nest},
		"serve.self_us_p50":            {v: p50("serve.self_us"), n: nest},
		"serve.encode_us_p50":          {v: p50("serve.encode_us"), n: nest},
		"serve.transport_us_p50":       {v: p50("serve.transport_us"), n: nest},
		"serve.alloc_bytes_per_req":    {v: e.handlerAlloc(probes), n: len(probes)},
		"serve.admission_queued_ratio": {v: ratio(c("serve.admission.queued"), c("serve.admission.admitted")), n: int(c("serve.admission.admitted"))},
		"serve.share_pct":              {v: share("serve"), n: nops},
		"serve.transport_share_pct":    {v: share("serve.transport"), n: nops},
		"serve.update_p50_ms":          {v: median(upd), n: len(upd)},
		"serve.update_tail_ms":         {v: updTail, n: len(upd), note: fmt.Sprintf("p%.1f", updPct)},

		"tier.depth_mean":       {v: mean("tier.depth"), n: len(ser("tier.depth"))},
		"tier.compactions":      {v: c("tier.compactions"), n: 1},
		"tier.compacting_share": {v: mean("tier.compacting"), n: len(ser("tier.compacting"))},
		"tier.delta_share_pct":  {v: 100 * ratio(t.deltaS, t.estSecs), n: len(ser("tier.depth"))},
		"tier.share_pct":        {v: share("tier"), n: nops},

		"runtime.gc_per_kop":            {v: 1e3 * ratio(float64(a.gcs), ops), n: len(a.ms)},
		"runtime.gc_pause_p99_ms":       {v: rank(sorted(a.pauses), 0.99), n: len(a.pauses)},
		"runtime.heap_mb_end":           {v: a.heapEnd / 1e6, n: 1},
		"runtime.retained_bytes_per_op": {v: ratio(a.retained, ops), n: len(a.ms)},

		"trace_overhead_pct": {v: 100 * (ratio(median(b.ms), median(a.ms)) - 1), n: len(b.ms)},
	}
	return v
}

// parseAlloc is the bytes one xmltree.Parse of xml allocates.
func parseAlloc(xml []byte) float64 {
	return allocPerCall(1, func(int) {
		// The document parsed at set-up; only the allocation is wanted.
		_, _ = xmltree.Parse(bytes.NewReader(xml))
	})
}

// evalAlloc is the bytes one estimate of a probe query allocates in-process
// (eval.Approx, or the live view's Estimate).
func (e *env) evalAlloc(probes []probeItem) float64 {
	opts := eval.Options{Metrics: obs.NewRegistry()}
	return allocPerCall(len(probes), func(i int) {
		p := probes[i]
		if stk, live := e.st.stacks[p.ds]; live {
			stk.View().Estimate(p.q, opts)
			return
		}
		eval.Approx(e.st.sketches[p.ds], p.q, opts)
	})
}

// handlerAlloc is the bytes the server's handler allocates per probe
// request, served in-process through httptest.
func (e *env) handlerAlloc(probes []probeItem) float64 {
	return allocPerCall(len(probes), func(i int) {
		e.st.handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, probes[i].url, nil))
	})
}

// allocPerCall runs fn(0..n-1) and returns the bytes allocated per call.
func allocPerCall(n int, fn func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(n))
}
