// Package bench records the seed-fixed results of the paper's Section 6
// grid: for every dataset x budget cell, the TSBuild trajectory (merges,
// final size, synopsis fingerprint), selectivity and ESD accuracy (Figures
// 11 and 12), and top-k truncation bounds; for every dataset, the accuracy
// of a live tier stack over a seeded update script and the fingerprint of
// its compacted view. Every value is a function of the config and seed
// alone, on any machine and at any parallelism, so the record is committed
// as a baseline (BENCH_treesketch.json) and Compare diffs two records
// exactly.
//
// The package times nothing. Latency and throughput are measured by the
// repository benchmark (perfbench, BENCHMARK.json) and the root package's
// Go benchmarks.
//
// The harness reuses the internal/exp Runner for dataset synthesis,
// workload generation, and ground truth, so its numbers are computed on
// exactly the documents and queries the experiment suite uses.
package bench

import (
	"fmt"
	"io"
	"math"

	"treesketch/internal/esd"
	"treesketch/internal/eval"
	"treesketch/internal/exp"
	"treesketch/internal/tsbuild"
)

// SchemaVersion identifies the Result JSON layout. ReadFile refuses files
// of another version, so bump it whenever a field changes meaning.
const SchemaVersion = 2

// DefaultSeed seeds every benchmark run that does not override it; runs
// with equal configs and seeds produce identical records.
const DefaultSeed int64 = 1

// topKLimit is the node budget (eval.Options.Limit) of the top-k cells.
const topKLimit = 16

// Config controls benchmark scale. The zero value is not runnable; start
// from FullConfig or QuickConfig (or fill every field).
type Config struct {
	// Datasets names the harness datasets to benchmark (see exp.TXNames
	// and exp.LargeNames for the known names).
	Datasets []string `json:"datasets"`
	// BudgetsKB is the synopsis budget grid. The update and negative legs
	// use its largest budget.
	BudgetsKB []int `json:"budgets_kb"`
	// Scale is the element count of each synthesized document.
	Scale int `json:"scale"`
	// WorkloadSize is the number of evaluation queries per dataset.
	WorkloadSize int `json:"workload_size"`
	// Seed makes the run reproducible; 0 means DefaultSeed.
	Seed int64 `json:"seed"`
	// Quick records whether this was a reduced-scale run.
	Quick bool `json:"quick"`
	// UpdateOps is how many seeded insert/delete operations the live-update
	// leg absorbs into each dataset's tier stack before measuring accuracy
	// against exact truth and compacting. 0 selects a scale-appropriate
	// default; negative disables the leg.
	UpdateOps int `json:"update_ops,omitempty"`
	// Negative enables the negative-workload leg: guaranteed-empty queries
	// on every dataset must produce empty approximate answers at the
	// largest budget. Off by default (the scheduled full-grid run turns it
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
	if c.UpdateOps == 0 {
		c.UpdateOps = 600
		if c.Quick {
			c.UpdateOps = 120
		}
	}
	return c
}

// maxBudgetKB is the largest budget of the grid.
func (c Config) maxBudgetKB() int {
	m := 0
	for _, kb := range c.BudgetsKB {
		m = max(m, kb)
	}
	return m
}

// Metrics is one benchmark cell's named values.
type Metrics map[string]float64

// Result is the record of one benchmark run. It holds nothing that depends
// on the machine, the toolchain or the time of the run.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	Config        Config `json:"config"`
	// Benchmarks maps a cell key ("build/<dataset>",
	// "sketch/<dataset>/<budget>kb", "eval/...", "topk/...",
	// "update/<dataset>", "negative/<dataset>") to its values.
	Benchmarks map[string]Metrics `json:"benchmarks"`
	// Fingerprints maps "sketch/<dataset>/<budget>kb" to the cell's
	// synopsis fingerprint and "update/<dataset>" to the compacted view's,
	// as 16 hex digits.
	Fingerprints map[string]string `json:"fingerprints"`
}

// Run executes the benchmark grid and returns its record.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{
		SchemaVersion: SchemaVersion,
		Config:        cfg,
		Benchmarks:    make(map[string]Metrics),
		Fingerprints:  make(map[string]string),
	}
	r := newRunner(cfg)
	for _, ds := range cfg.Datasets {
		benchDataset(res, r, cfg, ds)
		if cfg.UpdateOps > 0 {
			if err := benchUpdate(res, r, cfg, ds); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Negative {
		benchNegative(res, r, cfg)
	}
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

func progress(cfg Config, format string, args ...any) {
	if cfg.Out != nil {
		fmt.Fprintf(cfg.Out, "bench: "+format+"\n", args...)
	}
}

func fingerprint(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// benchDataset records the sketch, eval and top-k cells of one dataset.
func benchDataset(res *Result, r *exp.Runner, cfg Config, ds string) {
	res.Benchmarks["build/"+ds] = Metrics{"elements": float64(r.Doc(ds).Size())}

	// Workload with ground truth (exact counts + true ESD graphs).
	w := r.Workload(ds, cfg.WorkloadSize, true)
	sanity := exp.SanityBound(w)

	for _, budgetKB := range cfg.BudgetsKB {
		key := fmt.Sprintf("%s/%02dkb", ds, budgetKB)
		sk, stats := tsbuild.Build(r.Stable(ds), tsbuild.Options{BudgetBytes: budgetKB * 1024})
		res.Benchmarks["sketch/"+key] = Metrics{
			"tsbuild_merges": float64(stats.Merges),
			"final_bytes":    float64(stats.FinalBytes),
			"final_nodes":    float64(stats.FinalNodes),
		}
		res.Fingerprints["sketch/"+key] = fingerprint(sk.Fingerprint())

		// The paper's two accuracy measures on this budget.
		var errSum, esdSum float64
		n := 0
		for _, item := range w {
			ar := eval.Approx(sk, item.Q, eval.Options{})
			if item.Empty {
				continue
			}
			n++
			errSum += eval.RelativeError(item.Truth, ar.Selectivity(), sanity)
			esdSum += esd.Distance(item.TruthESD, ar.ESDGraph())
		}
		em := Metrics{}
		if n > 0 {
			em["sel_mre_pct"] = 100 * errSum / float64(n)
			em["esd_avg"] = esdSum / float64(n)
		}
		res.Benchmarks["eval/"+key] = em

		// The same workload through the streaming best-first emitter under
		// a fixed node budget: the mean bound on the truncated mass.
		var boundSum float64
		finite := 0
		for _, item := range w {
			tr := eval.Approx(sk, item.Q, eval.Options{Limit: topKLimit})
			if tr.TopK != nil && !math.IsInf(tr.TopK.ErrorBound, 1) {
				boundSum += tr.TopK.ErrorBound
				finite++
			}
		}
		tm := Metrics{"k_limit": topKLimit}
		if finite > 0 {
			tm["error_bound_avg"] = boundSum / float64(finite)
		}
		res.Benchmarks["topk/"+key] = tm
		progress(cfg, "%-10s %2dKB: %d merges, %d bytes, MRE %.4f%%, ESD %.3f, top-%d bound %.2f",
			ds, budgetKB, stats.Merges, stats.FinalBytes, em["sel_mre_pct"], em["esd_avg"], topKLimit, tm["error_bound_avg"])
	}
}
