package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baseResult builds a minimal two-cell record for compare tests.
func baseResult() *Result {
	return &Result{
		SchemaVersion: SchemaVersion,
		Config:        Config{Datasets: []string{"XMark-TX"}, BudgetsKB: []int{10}, Quick: true},
		Benchmarks: map[string]Metrics{
			"build/XMark-TX": {"elements": 10000},
			"eval/XMark-TX/10kb": {
				"sel_mre_pct": 12.5,
				"esd_avg":     0.30,
			},
		},
		Fingerprints: map[string]string{"sketch/XMark-TX/10kb": "1b602352cc4ed610"},
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	if diffs := Compare(baseResult(), baseResult()); diffs != nil {
		t.Fatalf("identical records differ: %v", diffs)
	}
}

// TestCompareRegressionFailsGate: every kind of change to a record is one
// difference, whichever direction it moves in.
func TestCompareRegressionFailsGate(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Result)
		key  string
	}{
		{"accuracy_regression", func(r *Result) { r.Benchmarks["eval/XMark-TX/10kb"]["sel_mre_pct"] = 12.6 }, "eval/XMark-TX/10kb sel_mre_pct"},
		{"accuracy_improvement", func(r *Result) { r.Benchmarks["eval/XMark-TX/10kb"]["esd_avg"] = 0.29 }, "eval/XMark-TX/10kb esd_avg"},
		{"missing_metric", func(r *Result) { delete(r.Benchmarks["eval/XMark-TX/10kb"], "esd_avg") }, "eval/XMark-TX/10kb esd_avg"},
		{"missing_cell", func(r *Result) { delete(r.Benchmarks, "build/XMark-TX") }, "build/XMark-TX elements"},
		{"added_metric", func(r *Result) { r.Benchmarks["build/XMark-TX"]["nodes"] = 5 }, "build/XMark-TX nodes"},
		{"changed_fingerprint", func(r *Result) { r.Fingerprints["sketch/XMark-TX/10kb"] = "1b602352cc4ed611" }, "fingerprint sketch/XMark-TX/10kb"},
		{"missing_fingerprint", func(r *Result) { delete(r.Fingerprints, "sketch/XMark-TX/10kb") }, "fingerprint sketch/XMark-TX/10kb"},
		{"changed_config", func(r *Result) { r.Config.Quick = false }, "config"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := baseResult()
			tc.edit(cur)
			diffs := Compare(baseResult(), cur)
			if len(diffs) != 1 || diffs[0].Key != tc.key {
				t.Fatalf("diffs = %+v, want one on %q", diffs, tc.key)
			}
			// The diff is symmetric: swapping the records swaps Old and New.
			back := Compare(cur, baseResult())
			if len(back) != 1 || back[0].Old != diffs[0].New || back[0].New != diffs[0].Old {
				t.Fatalf("reverse diffs = %+v, forward %+v", back, diffs)
			}
		})
	}
}

func TestWriteTableRuns(t *testing.T) {
	cur := baseResult()
	cur.Benchmarks["eval/XMark-TX/10kb"]["sel_mre_pct"] = 12.75
	delete(cur.Benchmarks["eval/XMark-TX/10kb"], "esd_avg")
	var buf bytes.Buffer
	if err := WriteTable(&buf, Compare(baseResult(), cur)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sel_mre_pct", "12.5 -> 12.75", "0.3 -> -", "compare: 2 difference(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestResultRoundTripAndSchemaCheck(t *testing.T) {
	base := baseResult()
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(base, got); diffs != nil {
		t.Errorf("round trip changed the record: %v", diffs)
	}

	// A schema-1 record (timed metrics and an obs snapshot) is refused.
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"schema_version":1,"benchmarks":{"eval/XMark-TX/10kb":{"approx_p50_seconds":0.001}},"obs":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(old); err == nil || !strings.Contains(err.Error(), "schema version 1") {
		t.Fatalf("schema-1 record: err = %v, want a schema version refusal", err)
	}

	if _, err := ReadFile(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
