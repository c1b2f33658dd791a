// Command tsbench records the seed-fixed results of the benchmark grid
// (accuracy, TSBuild trajectory, top-k bounds, live-update accuracy and
// every synopsis fingerprint) and diffs two records exactly.
//
// Run the grid and (re)write a record:
//
//	tsbench                      # full grid -> BENCH_treesketch.json
//	tsbench -quick               # reduced CI-scale grid (the committed baseline)
//	tsbench -quick -o new.json -seed 7
//
// Compare two records; any added, missing or changed value exits 1:
//
//	tsbench -compare BENCH_treesketch.json new.json
//
// A record depends only on its config and seed, so records made under
// different GOMAXPROCS settings must compare clean. tsbench times nothing;
// see README "Benchmarking" for the timing harness, and DESIGN §6 for the
// JSON schema.
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
		out      = flag.String("o", "BENCH_treesketch.json", "output file for the record")
		seed     = flag.Int64("seed", bench.DefaultSeed, "run seed; equal seeds give identical records")
		datasets = flag.String("datasets", "", "comma-separated dataset override (default: the config's grid)")
		budgets  = flag.String("budgets", "", "comma-separated synopsis budgets in KB (override)")
		scale    = flag.Int("scale", 0, "document element count (override)")
		workload = flag.Int("workload", 0, "queries per dataset (override)")
		compare  = flag.Bool("compare", false, "diff two records exactly and exit 1 on any difference: tsbench -compare old.json new.json")
		negative = flag.Bool("negative", false, "run the negative-workload leg: guaranteed-empty queries must produce empty approximate answers")
	)
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two files (old.json new.json), got %d args", flag.NArg()))
		}
		runCompare(flag.Arg(0), flag.Arg(1))
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v (did you mean -compare?)", flag.Args()))
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
	cfg.Negative = *negative
	cfg.Out = os.Stdout

	res, err := bench.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.WriteFile(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("bench: wrote %s (%d cells, %d fingerprints, seed %d)\n", *out, len(res.Benchmarks), len(res.Fingerprints), cfg.Seed)
	for _, nameErr := range obs.Default().NameErrors() {
		fmt.Fprintf(os.Stderr, "tsbench: warning: %v\n", nameErr)
	}
	if err := obsFlags.Finish(); err != nil {
		fatal(err)
	}
}

func runCompare(oldPath, newPath string) {
	base, err := bench.ReadFile(oldPath)
	if err != nil {
		fatal(err)
	}
	cur, err := bench.ReadFile(newPath)
	if err != nil {
		fatal(err)
	}
	diffs := bench.Compare(base, cur)
	if err := bench.WriteTable(os.Stdout, diffs); err != nil {
		fatal(err)
	}
	if len(diffs) > 0 {
		os.Exit(1)
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
