// Package bench is the standardized end-to-end benchmark harness: it runs
// the dataset x budget grid the paper's Section 6 evaluates (build
// throughput, TSBuild phase breakdown, exact/approx evaluation latency
// percentiles, selectivity and ESD accuracy) and produces a versioned,
// machine-readable Result suitable for committing as a baseline
// (BENCH_treesketch.json) and for regression gating via Compare.
//
// The harness reuses the internal/exp Runner for dataset synthesis,
// workload generation, and ground truth, so benchmark numbers are computed
// on exactly the documents and queries the experiment suite uses, and it
// reads latency percentiles out of obs histograms (Histogram.Quantile)
// rather than keeping its own sample buffers.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"treesketch/internal/esd"
	"treesketch/internal/eval"
	"treesketch/internal/exp"
	"treesketch/internal/metricname"
	"treesketch/internal/obs"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
)

// SchemaVersion identifies the Result JSON layout. Compare refuses to diff
// files with mismatched versions, so bump it whenever a field changes
// meaning.
const SchemaVersion = 1

// DefaultSeed seeds every benchmark run that does not override it; runs
// with equal configs and seeds are bit-reproducible.
const DefaultSeed int64 = 1

// Config controls benchmark scale. The zero value is not runnable; start
// from FullConfig or QuickConfig (or fill every field).
type Config struct {
	// Datasets names the harness datasets to benchmark (see exp.TXNames
	// and exp.LargeNames for the known names).
	Datasets []string `json:"datasets"`
	// BudgetsKB is the synopsis budget grid.
	BudgetsKB []int `json:"budgets_kb"`
	// Scale is the element count of each synthesized document.
	Scale int `json:"scale"`
	// WorkloadSize is the number of evaluation queries per dataset.
	WorkloadSize int `json:"workload_size"`
	// Seed makes the run reproducible; 0 means DefaultSeed.
	Seed int64 `json:"seed"`
	// Repeats is how many recorded measurement passes each latency leg
	// runs (after one unrecorded warm-up pass); percentiles aggregate
	// over Repeats x WorkloadSize observations. Default 3.
	Repeats int `json:"repeats"`
	// Quick records whether this was a reduced-scale run; compare warns
	// when gating a quick run against a full baseline.
	Quick bool `json:"quick"`
	// TopKLimit is the node budget of the streaming top-k evaluation leg
	// (eval.Options.Limit): every eval cell gets a companion "topk/" cell
	// measuring best-first emission latency under this budget. 0 selects
	// the default 16; negative disables the leg.
	TopKLimit int `json:"topk_limit,omitempty"`
	// ServeSeconds is how long the under-load serving leg drives each
	// dataset's tsserve instance with closed-loop concurrent clients.
	// 0 selects a scale-appropriate default; negative disables the leg.
	ServeSeconds float64 `json:"serve_seconds,omitempty"`
	// ServeClients is the closed-loop client concurrency of the serving
	// leg. Default 8.
	ServeClients int `json:"serve_clients,omitempty"`
	// ServeBudgetKB is the synopsis budget the serving leg uses; 0 means
	// the largest budget of the grid.
	ServeBudgetKB int `json:"serve_budget_kb,omitempty"`
	// OpenLoopSeconds is how long the open-loop overload leg offers
	// Poisson arrivals to each dataset's tsserve instance. 0 selects a
	// scale-appropriate default; negative disables the leg.
	OpenLoopSeconds float64 `json:"openloop_seconds,omitempty"`
	// OpenLoopOverload is the offered-load multiple of the measured
	// closed-loop capacity. Default 1.5: deliberately past saturation, so
	// the admission gate has something to shed.
	OpenLoopOverload float64 `json:"openloop_overload,omitempty"`
	// OpenLoopInflight is the serve.Options.MaxInflight of the open-loop
	// leg's server; 0 means 4. Together with the leg's injected service
	// floor it pins the leg's capacity, so overload means the same thing
	// on every machine.
	OpenLoopInflight int `json:"openloop_inflight,omitempty"`
	// UpdateOps is how many seeded insert/delete operations the live-update
	// leg absorbs into each dataset's tier stack before measuring accuracy
	// against a rebuild and compacting. 0 selects a scale-appropriate
	// default; negative disables the leg.
	UpdateOps int `json:"update_ops,omitempty"`
	// Negative enables the negative-workload leg: guaranteed-empty queries
	// on every dataset must produce empty approximate answers at the
	// serving budget. Off by default (the scheduled full-grid run turns it
	// on).
	Negative bool `json:"negative,omitempty"`
	// Out receives human-readable progress lines; nil discards them.
	Out io.Writer `json:"-"`
}

// FullConfig is the reference benchmark scale: the paper's three -TX
// datasets at their ~100k-element size (Table 1: 42-60KB stable
// summaries) over the paper's 10-50KB budget grid.
func FullConfig() Config {
	return Config{
		Datasets:     exp.TXNames(),
		BudgetsKB:    []int{10, 20, 30, 40, 50},
		Scale:        100000,
		WorkloadSize: 100,
		Seed:         DefaultSeed,
	}
}

// QuickConfig is the reduced-scale grid used for CI smoke runs and the
// committed baseline: the same three datasets, three budgets small enough
// that every cell actually compresses (nonzero merges and error) at this
// document size, completing in a couple of seconds.
func QuickConfig() Config {
	return Config{
		Datasets:     exp.TXNames(),
		BudgetsKB:    []int{3, 6, 9},
		Scale:        15000,
		WorkloadSize: 40,
		Seed:         DefaultSeed,
		Quick:        true,
	}
}

func (c Config) withDefaults() Config {
	if len(c.Datasets) == 0 {
		c.Datasets = exp.TXNames()
	}
	if len(c.BudgetsKB) == 0 {
		c.BudgetsKB = []int{10, 20, 30, 40, 50}
	}
	if c.Scale <= 0 {
		c.Scale = 40000
	}
	if c.WorkloadSize <= 0 {
		c.WorkloadSize = 100
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.TopKLimit == 0 {
		c.TopKLimit = 16
	}
	if c.ServeSeconds == 0 {
		c.ServeSeconds = 1
		if !c.Quick {
			c.ServeSeconds = 5
		}
	}
	if c.ServeClients <= 0 {
		c.ServeClients = 8
	}
	if c.OpenLoopSeconds == 0 {
		c.OpenLoopSeconds = 1
		if !c.Quick {
			c.OpenLoopSeconds = 5
		}
	}
	if c.OpenLoopOverload <= 0 {
		c.OpenLoopOverload = 1.5
	}
	if c.OpenLoopInflight == 0 {
		// A fixed limiter (not GOMAXPROCS-derived) keeps the leg's capacity
		// — MaxInflight / openLoopServiceFloor — comparable across machines.
		c.OpenLoopInflight = 4
	}
	if c.UpdateOps == 0 {
		c.UpdateOps = 600
		if c.Quick {
			c.UpdateOps = 120
		}
	}
	if c.ServeBudgetKB <= 0 {
		for _, kb := range c.BudgetsKB {
			if kb > c.ServeBudgetKB {
				c.ServeBudgetKB = kb
			}
		}
	}
	return c
}

// Metrics is one benchmark's named measurements. Durations are in seconds,
// throughputs in elements or queries per second, accuracy metrics unitless
// (sel_mre_pct is a percentage).
type Metrics map[string]float64

// Result is the machine-readable output of one benchmark run.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	CreatedUnix   int64  `json:"created_unix,omitempty"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Config        Config `json:"config"`
	// Benchmarks maps a benchmark key ("build/<dataset>",
	// "sketch/<dataset>/<budget>kb", "eval/<dataset>/<budget>kb") to its
	// metric map.
	Benchmarks map[string]Metrics `json:"benchmarks"`
	// Obs embeds the full observability snapshot accumulated during the
	// run (phase timers, eval counters, latency histograms), so deeper
	// distributions survive alongside the headline metrics.
	Obs obs.Snapshot `json:"obs"`
}

// Run executes the benchmark grid and returns its Result. All
// instrumentation flows through the process-wide obs.Default registry,
// which is reset at the start so the embedded snapshot covers exactly this
// run.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	reg := obs.Default()
	reg.Reset()
	// The runtime collector starts after the reset (Reset orphans any
	// previously registered instruments) and stops before the final
	// snapshot, so the runtime.* families land in res.Obs covering exactly
	// this run.
	rc := obs.StartRuntimeCollector(reg, obs.DefaultRuntimeInterval)
	defer rc.Stop()
	res := &Result{
		SchemaVersion: SchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Config:        cfg,
		Benchmarks:    make(map[string]Metrics),
	}
	r := newRunner(cfg)
	for _, ds := range cfg.Datasets {
		if err := benchDataset(res, r, reg, cfg, ds); err != nil {
			return nil, err
		}
		if cfg.ServeSeconds > 0 {
			if err := benchServe(res, r, cfg, ds); err != nil {
				return nil, err
			}
		}
		if cfg.OpenLoopSeconds > 0 {
			if err := benchServeOpenLoop(res, r, cfg, ds); err != nil {
				return nil, err
			}
		}
		if cfg.UpdateOps > 0 {
			if err := benchUpdate(res, r, reg, cfg, ds); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Negative {
		benchNegative(res, r, cfg)
	}
	rc.Stop()
	res.Obs = reg.Snapshot()
	res.CreatedUnix = time.Now().Unix()
	return res, nil
}

// newRunner builds the exp Runner every leg shares: same documents,
// workloads, and ground truth as the experiment suite.
func newRunner(cfg Config) *exp.Runner {
	return exp.NewRunner(exp.Config{
		TXScale:      cfg.Scale,
		LargeScale:   cfg.Scale,
		WorkloadSize: cfg.WorkloadSize,
		BudgetsKB:    cfg.BudgetsKB,
		Seed:         cfg.Seed,
	})
}

// benchDataset runs the build, sketch, and eval legs for one dataset.
func benchDataset(res *Result, r *exp.Runner, reg *obs.Registry, cfg Config, ds string) error {
	progress := func(format string, args ...any) {
		if cfg.Out != nil {
			fmt.Fprintf(cfg.Out, "bench: "+format+"\n", args...)
		}
	}
	doc := r.Doc(ds)
	elements := float64(doc.Size())

	// Build leg: count-stable summarization throughput. The runner caches
	// its own summary; these timed builds measure cold constructions,
	// keeping the fastest of Repeats runs (the standard robust estimator
	// for a single-shot duration).
	stableSec := 0.0
	for i := 0; i < cfg.Repeats; i++ {
		t0 := time.Now()
		st := stable.Build(doc)
		sec := time.Since(t0).Seconds()
		if st.NumNodes() == 0 {
			return fmt.Errorf("bench: %s: empty stable summary", ds)
		}
		if i == 0 || sec < stableSec {
			stableSec = sec
		}
	}
	build := Metrics{
		"elements":             elements,
		"stable_seconds":       stableSec,
		"stable_elems_per_sec": rate(elements, stableSec),
	}
	progress("%-10s stable build: %d elems in %.3fs (%.0f elems/s)", ds, doc.Size(), stableSec, build["stable_elems_per_sec"])

	// Workload with ground truth (exact counts + true ESD graphs).
	w := r.Workload(ds, cfg.WorkloadSize, true)
	sanity := exp.SanityBound(w)
	ix := r.Index(ds)

	// Exact-evaluation latency leg (budget-independent).
	hExact := reg.Histogram("bench." + metricname.Clean(ds) + ".exact_latency_seconds")
	exactCounters0 := counterTotals(reg, "eval.exact.")
	exactTotal := measureLatencies(hExact, cfg.Repeats, len(w), func(i int) {
		eval.Exact(ix, w[i].Q)
	})
	build["exact_p50_seconds"] = hExact.Quantile(0.50)
	build["exact_p95_seconds"] = hExact.Quantile(0.95)
	build["exact_p99_seconds"] = hExact.Quantile(0.99)
	build["exact_tail_p99_over_p50"] = ratio(build["exact_p99_seconds"], build["exact_p50_seconds"])
	build["exact_queries_per_sec"] = rate(float64(len(w)), exactTotal)
	for name, v := range counterDeltas(reg, "eval.exact.", exactCounters0) {
		build["exact_"+name] = v
	}
	res.Benchmarks["build/"+ds] = build

	for _, budgetKB := range cfg.BudgetsKB {
		key := fmt.Sprintf("%s/%02dkb", ds, budgetKB)

		// Sketch leg: compression throughput plus the phase breakdown
		// read from the obs span timers (delta across this build).
		before := timerTotals(reg)
		sk, stats := tsbuild.Build(r.Stable(ds), tsbuild.Options{BudgetBytes: budgetKB * 1024})
		after := timerTotals(reg)
		tsSec := stats.Elapsed.Seconds()
		res.Benchmarks["sketch/"+key] = Metrics{
			"tsbuild_seconds":           tsSec,
			"tsbuild_elems_per_sec":     rate(elements, tsSec),
			"tsbuild_merges":            float64(stats.Merges),
			"final_bytes":               float64(stats.FinalBytes),
			"final_nodes":               float64(stats.FinalNodes),
			"build.reevals":             float64(stats.Reevals),
			"build.pool_rebuilds":       float64(stats.PoolRebuilds),
			"build.pool_truncated":      float64(stats.PoolTruncated),
			"build.stale_pops":          float64(stats.StalePops),
			"phase_create_pool_seconds": after["tsbuild.create_pool"] - before["tsbuild.create_pool"],
			"phase_merge_loop_seconds":  after["tsbuild.merge_loop"] - before["tsbuild.merge_loop"],
			"phase_compact_seconds":     after["tsbuild.compact"] - before["tsbuild.compact"],
		}

		// Eval leg: approximate-answer latency percentiles plus the two
		// paper accuracy measures (Figures 11 and 12) on this budget.
		// The accuracy pass doubles as the latency warm-up (the ESD and
		// error computations are seed-deterministic, one pass suffices);
		// the recorded passes then time only the evaluation itself.
		hApprox := reg.Histogram(fmt.Sprintf("bench.%s.%02dkb.approx_latency_seconds", metricname.Clean(ds), budgetKB))
		evalOpts := eval.Options{}
		approxCounters0 := counterTotals(reg, "eval.approx.")
		var errSum, esdSum float64
		n := 0
		for _, item := range w {
			ar := eval.Approx(sk, item.Q, evalOpts)
			if item.Empty {
				continue
			}
			n++
			errSum += eval.RelativeError(item.Truth, ar.Selectivity(), sanity)
			esdSum += esd.Distance(item.TruthESD, ar.ESDGraph())
		}
		approxTotal := measureLatencies(hApprox, cfg.Repeats, len(w), func(i int) {
			eval.Approx(sk, w[i].Q, evalOpts)
		})
		em := Metrics{
			"approx_p50_seconds":     hApprox.Quantile(0.50),
			"approx_p95_seconds":     hApprox.Quantile(0.95),
			"approx_p99_seconds":     hApprox.Quantile(0.99),
			"approx_queries_per_sec": rate(float64(len(w)), approxTotal),
		}
		em["approx_tail_p99_over_p50"] = ratio(em["approx_p99_seconds"], em["approx_p50_seconds"])
		for name, v := range counterDeltas(reg, "eval.approx.", approxCounters0) {
			em["approx_"+name] = v
		}
		if n > 0 {
			em["sel_mre_pct"] = 100 * errSum / float64(n)
			em["esd_avg"] = esdSum / float64(n)
		}
		res.Benchmarks["eval/"+key] = em
		progress("%-10s %2dKB: tsbuild %.3fs (%d merges), approx p50 %s, MRE %.2f%%, ESD %.2f",
			ds, budgetKB, tsSec, stats.Merges,
			time.Duration(em["approx_p50_seconds"]*float64(time.Second)).Round(time.Microsecond),
			em["sel_mre_pct"], em["esd_avg"])

		// Top-k leg: the same workload through the streaming best-first
		// emitter under a fixed node budget. The cell reuses the approx_*
		// metric names so the compare policies (tail ratio, percentile and
		// throughput bands) gate it like any other eval cell; the eval.topk.*
		// counter deltas and the mean truncation bound ride along as context.
		if cfg.TopKLimit > 0 {
			hTopK := reg.Histogram(fmt.Sprintf("bench.%s.%02dkb.topk_latency_seconds", metricname.Clean(ds), budgetKB))
			topkOpts := eval.Options{Limit: cfg.TopKLimit}
			topkCounters0 := counterTotals(reg, "eval.topk.")
			var boundSum float64
			finite := 0
			// Warm-up pass doubles as the bound survey (seed-deterministic).
			for _, item := range w {
				tr := eval.Approx(sk, item.Q, topkOpts)
				if tr.TopK != nil && !math.IsInf(tr.TopK.ErrorBound, 1) {
					boundSum += tr.TopK.ErrorBound
					finite++
				}
			}
			topkTotal := measureLatencies(hTopK, cfg.Repeats, len(w), func(i int) {
				eval.Approx(sk, w[i].Q, topkOpts)
			})
			tm := Metrics{
				"approx_p50_seconds":     hTopK.Quantile(0.50),
				"approx_p95_seconds":     hTopK.Quantile(0.95),
				"approx_p99_seconds":     hTopK.Quantile(0.99),
				"approx_queries_per_sec": rate(float64(len(w)), topkTotal),
				"k_limit":                float64(cfg.TopKLimit),
			}
			tm["approx_tail_p99_over_p50"] = ratio(tm["approx_p99_seconds"], tm["approx_p50_seconds"])
			for name, v := range counterDeltas(reg, "eval.topk.", topkCounters0) {
				tm["topk_"+name] = v
			}
			if finite > 0 {
				tm["error_bound_avg"] = boundSum / float64(finite)
			}
			res.Benchmarks["topk/"+key] = tm
			progress("%-10s %2dKB: topk(k=%d) p50 %s, tail %.1fx, avg bound %.1f",
				ds, budgetKB, cfg.TopKLimit,
				time.Duration(tm["approx_p50_seconds"]*float64(time.Second)).Round(time.Microsecond),
				tm["approx_tail_p99_over_p50"], tm["error_bound_avg"])
		}
	}
	return nil
}

// measureLatencies times fn over n work items, repeats passes, and records
// each item's fastest observed duration into h. Taking the per-item minimum
// across passes strips GC pauses and scheduler preemption out of the
// distribution, so the reported percentiles reflect the deterministic
// cross-query latency profile rather than the unluckiest moment of the
// run — which is what a regression gate needs to be stable. Returns the sum
// of the per-item minima (the best-case wall time for one pass), from which
// callers derive throughput.
func measureLatencies(h *obs.Histogram, repeats, n int, fn func(i int)) float64 {
	best := make([]float64, n)
	for rep := 0; rep < repeats; rep++ {
		for i := 0; i < n; i++ {
			q0 := time.Now()
			fn(i)
			sec := time.Since(q0).Seconds()
			if rep == 0 || sec < best[i] {
				best[i] = sec
			}
		}
	}
	var total float64
	for _, sec := range best {
		h.Observe(sec)
		total += sec
	}
	return total
}

// rate is n/seconds, guarded so a clock too coarse to resolve the phase
// yields 0 instead of +Inf (which would poison the JSON encoding).
func rate(n, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return n / seconds
}

// timerTotals reads the cumulative seconds of every phase timer, used to
// attribute span time to an individual build by differencing.
// ratio is p99/p50, guarded so an unresolvably fast p50 (clock granularity)
// yields 0 rather than +Inf. The tail-ratio metric is what the ROADMAP's
// "p99 <= 5x p50" target gates on.
func ratio(p99, p50 float64) float64 {
	if p50 <= 0 {
		return 0
	}
	return p99 / p50
}

// counterTotals snapshots the counters under a name prefix.
func counterTotals(reg *obs.Registry, prefix string) map[string]int64 {
	s := reg.Snapshot()
	out := make(map[string]int64)
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			out[name] = v
		}
	}
	return out
}

// counterDeltas returns the growth of the counters under prefix since the
// before snapshot, keyed by the suffix with dots flattened to underscores
// ("eval.approx.embed_prunes" -> "embed_prunes"). Zero deltas are dropped:
// per-cell benchmark metrics only carry counters that actually moved.
func counterDeltas(reg *obs.Registry, prefix string, before map[string]int64) map[string]float64 {
	s := reg.Snapshot()
	out := make(map[string]float64)
	for name, v := range s.Counters {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if d := v - before[name]; d > 0 {
			out[strings.ReplaceAll(strings.TrimPrefix(name, prefix), ".", "_")] = float64(d)
		}
	}
	return out
}

func timerTotals(reg *obs.Registry) map[string]float64 {
	s := reg.Snapshot()
	out := make(map[string]float64, len(s.Timers))
	for name, t := range s.Timers {
		out[name] = t.TotalSeconds
	}
	return out
}
