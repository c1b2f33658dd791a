// Command tsbench runs the standardized end-to-end benchmark grid and
// maintains the committed performance baseline (BENCH_treesketch.json).
//
// Run the grid and (re)write a baseline file:
//
//	tsbench                      # full grid -> BENCH_treesketch.json
//	tsbench -quick               # reduced CI-scale grid
//	tsbench -quick -o new.json -seed 7
//
// Compare two result files, optionally failing on regressions:
//
//	tsbench -compare BENCH_treesketch.json new.json
//	tsbench -compare BENCH_treesketch.json new.json -gate -slack 5
//
// Verify build determinism (bit-identical synopses at any parallelism):
//
//	tsbench -quick -determinism                 # in-process Workers=1 vs N
//	GOMAXPROCS=1 tsbench -quick -determinism > a
//	GOMAXPROCS=4 tsbench -quick -determinism > b && diff a b
//
// Runs are seeded (default seed 1) and bit-reproducible in their accuracy
// metrics; timing metrics carry per-metric noise thresholds that -slack
// multiplies for noisy CI hardware. See README "Benchmarking" and DESIGN
// §6 for the JSON schema.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"treesketch/internal/bench"
	"treesketch/internal/obs"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "run the reduced-scale grid (CI smoke scale; also the committed baseline's scale)")
		out      = flag.String("o", "BENCH_treesketch.json", "output file for the benchmark result")
		seed     = flag.Int64("seed", bench.DefaultSeed, "run seed; equal seeds give bit-identical accuracy metrics")
		datasets = flag.String("datasets", "", "comma-separated dataset override (default: the config's grid)")
		budgets  = flag.String("budgets", "", "comma-separated synopsis budgets in KB (override)")
		scale    = flag.Int("scale", 0, "document element count (override)")
		workload = flag.Int("workload", 0, "queries per dataset (override)")
		compare  = flag.Bool("compare", false, "compare two result files: tsbench -compare old.json new.json")
		gate     = flag.Bool("gate", false, "with -compare: exit nonzero when any metric regresses beyond threshold")
		slack    = flag.Float64("slack", 1, "with -compare: multiply every noise threshold (use >1 on noisy runners)")
		topk     = flag.Int("topk", 0, "node budget of the streaming top-k eval leg (0: default 16, negative: disable)")
		olSec    = flag.Float64("openloop-seconds", 0, "open-loop overload leg duration per dataset (0: scale default, negative: disable)")
		olOver   = flag.Float64("openloop-overload", 0, "open-loop offered load as a multiple of measured capacity (0: default 1.5)")
		updOps   = flag.Int("update-ops", 0, "live-update leg: seeded insert/delete ops absorbed per dataset before the accuracy check and compaction (0: scale default, negative: disable)")
		negative = flag.Bool("negative", false, "run the negative-workload leg: guaranteed-empty queries must produce empty approximate answers")
		determ   = flag.Bool("determinism", false, "instead of benchmarking, print per-cell synopsis fingerprints and verify Workers=1 matches Workers=GOMAXPROCS; diff the output across GOMAXPROCS settings to check cross-core determinism")
	)
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()
	// Support flags after the positional file arguments
	// (`-compare old.json new.json -gate`): the stdlib parser stops at
	// the first positional, so interleave parsing until everything is
	// consumed.
	var files []string
	rest := flag.Args()
	for len(rest) > 0 {
		if strings.HasPrefix(rest[0], "-") {
			if err := flag.CommandLine.Parse(rest); err != nil {
				fatal(err)
			}
			rest = flag.CommandLine.Args()
			continue
		}
		files = append(files, rest[0])
		rest = rest[1:]
	}

	if *compare {
		if len(files) != 2 {
			fatal(fmt.Errorf("-compare needs exactly two files (old.json new.json), got %d args", len(files)))
		}
		runCompare(files[0], files[1], *gate, *slack)
		return
	}
	if len(files) != 0 {
		fatal(fmt.Errorf("unexpected arguments %v (did you mean -compare?)", files))
	}
	if err := obsFlags.Start(); err != nil {
		fatal(err)
	}

	cfg := bench.FullConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed
	if *datasets != "" {
		cfg.Datasets = splitList(*datasets)
	}
	if *budgets != "" {
		cfg.BudgetsKB = parseBudgets(*budgets)
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *workload > 0 {
		cfg.WorkloadSize = *workload
	}
	cfg.TopKLimit = *topk
	cfg.OpenLoopSeconds = *olSec
	cfg.OpenLoopOverload = *olOver
	cfg.UpdateOps = *updOps
	cfg.Negative = *negative
	cfg.Out = os.Stdout

	if *determ {
		if err := bench.Determinism(cfg, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	res, err := bench.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.WriteFile(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("bench: wrote %s (%d benchmarks, seed %d)\n", *out, len(res.Benchmarks), cfg.Seed)
	for _, nameErr := range obs.Default().NameErrors() {
		fmt.Fprintf(os.Stderr, "tsbench: warning: %v\n", nameErr)
	}
	if err := obsFlags.Finish(); err != nil {
		fatal(err)
	}
}

func runCompare(oldPath, newPath string, gate bool, slack float64) {
	base, err := bench.ReadFile(oldPath)
	if err != nil {
		fatal(err)
	}
	cur, err := bench.ReadFile(newPath)
	if err != nil {
		fatal(err)
	}
	c := bench.Compare(base, cur, slack)
	if err := c.WriteTable(os.Stdout); err != nil {
		fatal(err)
	}
	if err := c.Gate(); err != nil {
		if gate {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tsbench: %v\n(informational: -gate not set)\n", err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseBudgets(s string) []int {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			fatal(fmt.Errorf("bad -budgets entry %q", part))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tsbench:", err)
	os.Exit(1)
}
