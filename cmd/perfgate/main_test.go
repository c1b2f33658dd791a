package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baseline is one run's end-to-end metrics on an imaginary workload.
var baseline = map[string]float64{
	"setup_s":            0.5,
	"ops_per_s":          1000,
	"p50_ms":             1,
	"tail_ms":            5,
	"alloc_bytes_per_op": 10000,
	"projected_heap_mb":  50,
	"sel_mre_pct":        0.1,
}

// mkRuns makes five runs of baseline, the i-th scaled by 1 + (i-2)/100 so
// the runs spread around the same median, with each metric in scale
// multiplied into every run.
func mkRuns(scale map[string]float64) []result {
	var list []result
	for i := 0; i < 5; i++ {
		r := result{Correct: true, Attempted: 1000}
		r.Metrics = make(map[string]struct {
			Value float64 `json:"value"`
		})
		for name, v := range baseline {
			v *= 1 + float64(i-2)/100
			if s, ok := scale[name]; ok {
				v *= s
			}
			r.Metrics[name] = struct {
				Value float64 `json:"value"`
			}{v}
		}
		list = append(list, r)
	}
	return list
}

func TestDecide(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		change func([]result) []result
		fail   string // substring of the one expected failure; "" passes
	}{
		{"no-op", func(r []result) []result { return r }, ""},
		{"p50 +30%", func([]result) []result { return mkRuns(map[string]float64{"p50_ms": 1.3}) }, "p50_ms"},
		{"p50 +20%", func([]result) []result { return mkRuns(map[string]float64{"p50_ms": 1.2}) }, ""},
		{"ops/s -30%", func([]result) []result { return mkRuns(map[string]float64{"ops_per_s": 0.7}) }, "ops_per_s"},
		{"ops/s +30%", func([]result) []result { return mkRuns(map[string]float64{"ops_per_s": 1.3}) }, ""},
		{"alloc +11%", func([]result) []result { return mkRuns(map[string]float64{"alloc_bytes_per_op": 1.11}) }, "alloc_bytes_per_op"},
		{"heap +6%", func([]result) []result { return mkRuns(map[string]float64{"projected_heap_mb": 1.06}) }, "projected_heap_mb"},
		{"heap +4%", func([]result) []result { return mkRuns(map[string]float64{"projected_heap_mb": 1.04}) }, ""},
		{"sel_mre lower", func([]result) []result { return mkRuns(map[string]float64{"sel_mre_pct": 0.999}) }, "sel_mre_pct"},
		{"failed share", func(r []result) []result { r[3].Failed = 1; return r }, "failed 0.02% of operations"},
		{"incorrect run", func(r []result) []result { r[1].Correct = false; return r }, "change run 2 failed its checks"},
		{"missing metric", func(r []result) []result { delete(r[4].Metrics, "tail_ms"); return r }, "tail_ms: missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := make(runs)
			for _, wl := range sp.Workloads {
				rs[wl.Name] = [2][]result{mkRuns(nil), mkRuns(nil)}
			}
			// The change differs on one workload only.
			r := rs["estimate-hot"]
			r[1] = tc.change(r[1])
			rs["estimate-hot"] = r
			fails := decide(sp, rs, io.Discard)
			if tc.fail == "" {
				if len(fails) != 0 {
					t.Fatalf("want pass, got %q", fails)
				}
				return
			}
			if len(fails) != 1 || !strings.Contains(fails[0], tc.fail) || !strings.HasPrefix(fails[0], "estimate-hot") {
				t.Fatalf("want one estimate-hot failure naming %q, got %q", tc.fail, fails)
			}
		})
	}
}

// TestGateRunsPairs drives gate end to end: a BENCHMARK.json whose command
// is a script printing a result line, in two checkouts.
func TestGateRunsPairs(t *testing.T) {
	root := t.TempDir()
	log := filepath.Join(root, "runs.log")
	dirs := [2]string{filepath.Join(root, "parent"), filepath.Join(root, "change")}
	write := func(dir, name, content string) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Each script logs its side and arguments, prints a line that is not
	// the result, then the result line.
	script := func(side string, ops int) string {
		return fmt.Sprintf("echo %s \"$@\" >> %s\necho 'ops_per_s %d'\n"+
			`echo '{"correct":true,"attempted":10,"failed":0,"metrics":{"ops_per_s":{"value":%d,"unit":"1/s"}}}'`+"\n",
			side, log, ops, ops)
	}
	write(dirs[1], "BENCHMARK.json", `{"command":["sh","bench.sh"],"run_seconds":2,
		"workloads":[{"name":"w"}],
		"end_to_end":[{"name":"ops_per_s","better":"higher","bound":0.25}]}`)
	write(dirs[0], "bench.sh", script("parent", 100))

	for _, tc := range []struct {
		ops  int
		pass bool
	}{{90, true}, {70, false}} {
		if err := os.Remove(log); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		write(dirs[1], "bench.sh", script("change", tc.ops))
		var out strings.Builder
		pass, err := gate(dirs, &out)
		if err != nil {
			t.Fatal(err)
		}
		if pass != tc.pass {
			t.Fatalf("change at %d ops/s: pass = %v, want %v\n%s", tc.ops, pass, tc.pass, out.String())
		}
		data, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for p, seed := range seeds {
			order := []string{"parent", "change"}
			if p%2 == 1 {
				order = []string{"change", "parent"}
			}
			for _, side := range order {
				want = append(want, fmt.Sprintf("%s --workload w --seed %d --seconds 2", side, seed))
			}
		}
		if got := strings.Split(strings.TrimSpace(string(data)), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("runs:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
