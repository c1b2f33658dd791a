// Command perfgate runs the repository benchmark on two checkouts of the
// repository and fails when the second is worse than the first:
//
//	perfgate <parent-checkout> <change-checkout>
//
// It reads BENCHMARK.json from the change's checkout and runs its command in
// each checkout, for every workload, with the benchmark's own run_seconds:
//
//	<command> --workload <name> --seed <seed> --seconds <run_seconds>
//
// The runs come in pairs: one parent run and one change run on the same
// seed, one after the other, the side that goes first alternating from pair
// to pair so host drift lands on both sides alike. The command must print
// its result as the last JSON line of its standard output:
//
//	{"correct":true,"attempted":131072,"failed":0,"metrics":{"p50_ms":{"value":0.0751,"unit":"ms"},...}}
//
// After every run perfgate prints the run's end-to-end metrics; at the end
// it prints one row per workload and end-to-end metric with both medians,
// and exits 1 when any of these holds:
//
//   - a run failed its checks: it exited nonzero, printed no result line,
//     or reported correct=false;
//   - on some workload the change failed a larger share of its attempted
//     operations than the parent;
//   - on some workload the change's median of an end-to-end metric is worse
//     than the parent's by more than the metric's bound, relative to the
//     parent's median. A bound of 0 means the metric must not move at all.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// seeds are the seeds of the pairs, one pair per seed. Five pairs let a
// median absorb two outlying runs on each side.
var seeds = []int64{1, 2, 3, 4, 5}

// sides names the two checkouts in output.
var sides = [2]string{"parent", "change"}

// spec is the part of BENCHMARK.json perfgate reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricBound `json:"end_to_end"`
}

// metricBound is one end-to-end metric and its bound: the largest relative
// change for the worse that still passes.
type metricBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// result is one run's outcome: the benchmark's result line, with Correct
// false as well when the command failed or printed none.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runs holds every result, by workload and then side (0 parent, 1 change).
type runs map[string][2][]result

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perfgate <parent-checkout> <change-checkout>")
		os.Exit(2)
	}
	pass, err := gate([2]string{os.Args[1], os.Args[2]}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !pass {
		os.Exit(1)
	}
}

// gate runs every pair on the two checkouts, writes each run's summary and
// the final table to w, and reports whether the change passed.
func gate(dirs [2]string, w io.Writer) (bool, error) {
	sp, err := readSpec(filepath.Join(dirs[1], "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	rs := make(runs)
	for p, seed := range seeds {
		for _, wl := range sp.Workloads {
			for k := 0; k < 2; k++ {
				side := (p + k) % 2
				res := runOnce(sp, dirs[side], wl.Name, seed)
				r := rs[wl.Name]
				r[side] = append(r[side], res)
				rs[wl.Name] = r
				fmt.Fprintf(w, "pair %d/%d %-14s %-6s seed %d: %s\n", p+1, len(seeds), wl.Name, sides[side], seed, summary(sp, res))
			}
		}
	}
	fmt.Fprintln(w)
	fails := decide(sp, rs, w)
	for _, f := range fails {
		fmt.Fprintln(w, "FAIL:", f)
	}
	if len(fails) == 0 {
		fmt.Fprintln(w, "perfgate: pass")
	}
	return len(fails) == 0, nil
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perfgate: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("perfgate: parse %s: %w", path, err)
	}
	if len(sp.Command) == 0 || sp.RunSeconds <= 0 || len(sp.Workloads) == 0 {
		return nil, fmt.Errorf("perfgate: %s needs a command, run_seconds and workloads", path)
	}
	return &sp, nil
}

// runOnce runs one workload in one checkout. Its standard error goes to
// perfgate's; a run that fails is reported and counted, not retried.
func runOnce(sp *spec, dir, workload string, seed int64) result {
	args := append([]string{}, sp.Command[1:]...)
	args = append(args, "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64))
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	res, perr := lastResult(out)
	if err != nil || perr != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %s in %s: run error %v, result line error %v\n", workload, dir, err, perr)
		res.Correct = false
	}
	return res
}

// lastResult parses the last line of out that starts with '{'.
func lastResult(out []byte) (result, error) {
	var line []byte
	for _, l := range bytes.Split(out, []byte("\n")) {
		if l = bytes.TrimSpace(l); len(l) > 0 && l[0] == '{' {
			line = l
		}
	}
	var res result
	if line == nil {
		return res, fmt.Errorf("no result line")
	}
	if err := json.Unmarshal(line, &res); err != nil {
		return result{}, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}

// summary is a run's one-line report.
func summary(sp *spec, r result) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "correct=%v failed=%d/%d", r.Correct, r.Failed, r.Attempted)
	for _, m := range sp.EndToEnd {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(&b, " %s=%.4g", m.Name, v.Value)
		}
	}
	return b.String()
}

// decide applies the rule in the package comment to rs, writes the table
// to w and returns one line per failure.
func decide(sp *spec, rs runs, w io.Writer) []string {
	var fails []string
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %8s %6s\n", "workload", "metric", "parent", "change", "ratio", "bound")
	for _, wl := range sp.Workloads {
		r := rs[wl.Name]
		if len(r[0]) == 0 || len(r[1]) == 0 {
			fails = append(fails, fmt.Sprintf("%s: missing runs", wl.Name))
			continue
		}
		var share [2]float64
		for side, list := range r {
			attempted, failed := 0, 0
			for i, res := range list {
				if !res.Correct {
					fails = append(fails, fmt.Sprintf("%s: %s run %d failed its checks", wl.Name, sides[side], i+1))
				}
				attempted += res.Attempted
				failed += res.Failed
			}
			if attempted > 0 {
				share[side] = float64(failed) / float64(attempted)
			}
		}
		if share[1] > share[0] {
			fails = append(fails, fmt.Sprintf("%s: change failed %.3g%% of operations, parent %.3g%%", wl.Name, 100*share[1], 100*share[0]))
		}
		for _, m := range sp.EndToEnd {
			parent, okP := median(r[0], m.Name)
			change, okC := median(r[1], m.Name)
			if !okP || !okC {
				fails = append(fails, fmt.Sprintf("%s %s: missing from some run", wl.Name, m.Name))
				continue
			}
			verdict := ""
			if worse(m, parent, change) {
				verdict = "FAIL"
				fails = append(fails, fmt.Sprintf("%s %s: median %.4g -> %.4g, bound %g", wl.Name, m.Name, parent, change, m.Bound))
			}
			fmt.Fprintf(w, "%-14s %-20s %12.5g %12.5g %8.3f %6g %s\n", wl.Name, m.Name, parent, change, change/parent, m.Bound, verdict)
		}
	}
	return fails
}

// worse reports whether change is worse than parent by more than m's bound.
func worse(m metricBound, parent, change float64) bool {
	if m.Bound == 0 {
		return change != parent
	}
	rel := (change - parent) / math.Abs(parent)
	if m.Better == "higher" {
		rel = -rel
	}
	return rel > m.Bound
}

// median is the median of metric over list; false when a run lacks it.
func median(list []result, metric string) (float64, bool) {
	vals := make([]float64, 0, len(list))
	for _, r := range list {
		v, ok := r.Metrics[metric]
		if !ok {
			return 0, false
		}
		vals = append(vals, v.Value)
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2], true
	}
	return (vals[n/2-1] + vals[n/2]) / 2, true
}
