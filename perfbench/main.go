// Command perfbench is the repository benchmark. It runs one workload
// through TreeSketch's own code — the offline synopsis build, or the tsserve
// request path stood up in-process behind a loopback HTTP listener — for a
// fixed time, checks the program's outputs, and prints one JSON result.
//
// Run it from the repository root through the launcher, which first builds
// this package into .bench_build/:
//
//	bash perfbench/run.sh --workload estimate-hot --seed 1 --seconds 25 --trace 0
//
// Before it builds, the launcher runs this package's tests, which hold
// BENCHMARK.json, the metric lists and the checks to each other; it does
// not run the benchmark when they fail.
//
// BENCHMARK.json at the repository root defines the workloads and metrics;
// workloads.go says what each workload sends and why. The benchmark makes
// every input from --seed and the fixed dataset generators: the program
// only ever sees XML bytes, query strings and /update bodies.
//
// With --trace 0 the result carries the end-to-end metrics of one timed
// phase. With --trace 1 the time is split: an untraced phase, then a traced
// phase in which every operation gets an obs.Trace with one span per
// layer. The result carries the per-layer metrics, and the first traces
// are written as JSON lines to .bench_build/trace/<workload>-<seed>.jsonl.
//
// Standard output lists every metric with its unit and sample count, then
// ends with the result line:
//
//	{"correct":true,"attempted":131072,"failed":0,"metrics":{"p50_ms":{"value":0.0751,"unit":"ms"},...}}
//
// The exit code is nonzero when a check or an operation fails, or the
// workload cannot run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runLimit bounds one run; a hang anywhere ends the process with an error
// instead of outliving the caller's patience.
const runLimit = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "seed of the request stream and update script")
		seconds = flag.Float64("seconds", 25, "length of the timed phase in seconds (BENCHMARK.json run_seconds)")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from a traced phase")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive, got %v", *seconds))
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traced == 1,
		sizes:    defaultSizes,
		clients:  runtime.GOMAXPROCS(0),
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", cfg.workload, runLimit)
		os.Exit(2)
	})

	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.traced {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := rep.tracer.writeFile(path); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans of %d operations written to %s\n", len(rep.tracer.kept), path)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "perfbench: note:", n)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.result.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
