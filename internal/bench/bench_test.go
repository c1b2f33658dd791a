package bench

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// tinyConfig keeps the end-to-end harness test fast: one dataset, two
// budgets, a handful of queries.
func tinyConfig() Config {
	return Config{
		Datasets:     []string{"XMark-TX"},
		BudgetsKB:    []int{2, 4},
		Scale:        1500,
		WorkloadSize: 6,
		Seed:         DefaultSeed,
		Quick:        true,
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestRunProducesFullGrid(t *testing.T) {
	var progress bytes.Buffer
	cfg := tinyConfig()
	cfg.Out = &progress
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemaVersion != SchemaVersion {
		t.Errorf("schema version = %d, want %d", res.SchemaVersion, SchemaVersion)
	}

	// Every cell carries exactly its seed-fixed values.
	want := map[string]string{
		"build/XMark-TX":       "elements",
		"sketch/XMark-TX/02kb": "final_bytes final_nodes tsbuild_merges",
		"sketch/XMark-TX/04kb": "final_bytes final_nodes tsbuild_merges",
		"eval/XMark-TX/02kb":   "esd_avg sel_mre_pct",
		"eval/XMark-TX/04kb":   "esd_avg sel_mre_pct",
		"topk/XMark-TX/02kb":   "error_bound_avg k_limit",
		"topk/XMark-TX/04kb":   "error_bound_avg k_limit",
		"update/XMark-TX":      "update_delta_elems update_mre_pct update_ops update_tiers",
	}
	if got := sortedKeys(res.Benchmarks); !reflect.DeepEqual(got, sortedKeys(want)) {
		t.Fatalf("cells = %v, want %v", got, sortedKeys(want))
	}
	for cell, metrics := range want {
		if got := strings.Join(sortedKeys(res.Benchmarks[cell]), " "); got != metrics {
			t.Errorf("%s holds %q, want %q", cell, got, metrics)
		}
	}
	if res.Benchmarks["build/XMark-TX"]["elements"] <= 0 || res.Benchmarks["sketch/XMark-TX/02kb"]["final_bytes"] <= 0 {
		t.Errorf("empty document or synopsis: %v", res.Benchmarks)
	}
	if k := res.Benchmarks["topk/XMark-TX/02kb"]["k_limit"]; k != topKLimit {
		t.Errorf("k_limit = %g, want %d", k, topKLimit)
	}
	wantFP := []string{"sketch/XMark-TX/02kb", "sketch/XMark-TX/04kb", "update/XMark-TX"}
	if got := sortedKeys(res.Fingerprints); !reflect.DeepEqual(got, wantFP) {
		t.Fatalf("fingerprints = %v, want %v", got, wantFP)
	}
	for cell, fp := range res.Fingerprints {
		if len(fp) != 16 {
			t.Errorf("%s fingerprint %q is not 16 hex digits", cell, fp)
		}
	}
	if res.Fingerprints["sketch/XMark-TX/02kb"] == res.Fingerprints["sketch/XMark-TX/04kb"] {
		t.Error("two budgets gave the same synopsis fingerprint")
	}
	if !strings.Contains(progress.String(), "XMark-TX") {
		t.Error("no progress output written")
	}
}

func TestRunIsSeedReproducible(t *testing.T) {
	a, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(a, b); diffs != nil || !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of one config differ: %v", diffs)
	}

	other := tinyConfig()
	other.Seed = 99
	c, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if c.Config.Seed != 99 {
		t.Errorf("config seed not recorded: %+v", c.Config)
	}
	same := true
	for _, cell := range []string{"eval/XMark-TX/02kb", "eval/XMark-TX/04kb"} {
		if a.Benchmarks[cell]["sel_mre_pct"] != c.Benchmarks[cell]["sel_mre_pct"] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical sel_mre_pct (workload not seeded?)")
	}
}

// TestDeterminismCheck: the record, fingerprints included, is the same at
// any parallelism. TSBuild and compaction default to one worker per CPU,
// so the two runs take different schedules to the same synopses.
func TestDeterminismCheck(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var records [2]bytes.Buffer
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if records[0].String() != records[1].String() {
		t.Fatalf("GOMAXPROCS=1 and GOMAXPROCS=4 records differ:\n%s\nvs\n%s", records[0].String(), records[1].String())
	}
}

func TestRunCompareRoundTripGates(t *testing.T) {
	res, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_treesketch.json")
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(loaded, res); diffs != nil {
		t.Fatalf("record differs from itself after a round trip: %v", diffs)
	}

	// The smallest change a float can make still shows.
	cur, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := cur.Benchmarks["eval/XMark-TX/02kb"]
	m["sel_mre_pct"] = math.Nextafter(m["sel_mre_pct"], math.Inf(1))
	diffs := Compare(loaded, cur)
	if len(diffs) != 1 || diffs[0].Key != "eval/XMark-TX/02kb sel_mre_pct" {
		t.Fatalf("one-ulp change gave %v", diffs)
	}
}

func TestConfigDefaults(t *testing.T) {
	got := Config{}.withDefaults()
	if got.Seed != DefaultSeed {
		t.Errorf("default seed = %d, want %d", got.Seed, DefaultSeed)
	}
	if len(got.Datasets) == 0 || len(got.BudgetsKB) == 0 || got.Scale <= 0 || got.WorkloadSize <= 0 || got.UpdateOps <= 0 {
		t.Errorf("defaults incomplete: %+v", got)
	}
	for _, cfg := range []Config{FullConfig(), QuickConfig()} {
		if len(cfg.Datasets) < 3 || len(cfg.BudgetsKB) < 3 {
			t.Errorf("config grid smaller than 3 datasets x 3 budgets: %+v", cfg)
		}
		if cfg.Seed != DefaultSeed {
			t.Errorf("config seed = %d, want documented default %d", cfg.Seed, DefaultSeed)
		}
	}
	if fmt.Sprintf("%d", DefaultSeed) != "1" {
		t.Errorf("DefaultSeed changed; update the README documentation")
	}
}
