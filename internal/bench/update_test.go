package bench

import (
	"runtime"
	"testing"

	"treesketch/internal/tier"
	"treesketch/internal/xmltree"
)

func TestBenchUpdateLeg(t *testing.T) {
	cfg := tinyConfig()
	cfg.UpdateOps = 40
	cfg = cfg.withDefaults()
	res := &Result{Benchmarks: make(map[string]Metrics), Fingerprints: make(map[string]string)}
	if err := benchUpdate(res, newRunner(cfg), cfg, "XMark-TX"); err != nil {
		t.Fatal(err)
	}
	m, ok := res.Benchmarks["update/XMark-TX"]
	if !ok {
		t.Fatalf("missing update benchmark, have %v", sortedKeys(res.Benchmarks))
	}
	t.Logf("update metrics: %v", m)
	if m["update_ops"] != 40 {
		t.Errorf("update_ops = %g, want 40", m["update_ops"])
	}
	if m["update_delta_elems"] == 0 || m["update_tiers"] <= 0 {
		t.Errorf("pre-compaction delta shape = %v, want nonzero delta over >= 1 tier", m)
	}
	// The pre-compaction answer must track exact truth on the mutated
	// document; the bound is deliberately loose (it includes the base
	// sketch's own compression error at this tiny budget).
	if mre := m["update_mre_pct"]; mre < 0 || mre > 50 {
		t.Errorf("update_mre_pct = %g, want within [0, 50]", mre)
	}
	// benchUpdate errors when the compacted base differs from a rebuild.
	if res.Fingerprints["update/XMark-TX"] == "" {
		t.Error("no update fingerprint recorded")
	}
}

func TestUpdateLegRunsInsideGrid(t *testing.T) {
	cfg := tinyConfig()
	cfg.UpdateOps = 20
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Benchmarks["update/XMark-TX"]; !ok {
		t.Fatalf("grid run missing update leg, have %v", sortedKeys(res.Benchmarks))
	}
	if res.Benchmarks["update/XMark-TX"]["update_ops"] != 20 {
		t.Errorf("update cell = %v, want 20 ops", res.Benchmarks["update/XMark-TX"])
	}

	// Negative disables the leg.
	cfg.UpdateOps = -1
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Benchmarks["update/XMark-TX"]; ok {
		t.Error("UpdateOps < 0 should disable the update leg")
	}
	if _, ok := res.Fingerprints["update/XMark-TX"]; ok {
		t.Error("UpdateOps < 0 should leave no update fingerprint")
	}
}

func TestBenchNegativeLeg(t *testing.T) {
	cfg := tinyConfig()
	cfg.Negative = true
	cfg = cfg.withDefaults()
	res := &Result{Benchmarks: make(map[string]Metrics)}
	benchNegative(res, newRunner(cfg), cfg)
	// One cell per -TX dataset regardless of cfg.Datasets: the leg is a
	// cross-dataset claim check.
	for _, ds := range []string{"IMDB-TX", "XMark-TX", "SProt-TX"} {
		m, ok := res.Benchmarks["negative/"+ds]
		if !ok {
			t.Fatalf("missing negative/%s, have %v", ds, sortedKeys(res.Benchmarks))
		}
		if m["empty_answer_rate"] != 1 {
			t.Errorf("%s: empty_answer_rate = %g, want 1 (the paper's negative-workload claim)", ds, m["empty_answer_rate"])
		}
	}
}

// TestDeterminismIncludesUpdateCells: the record's update fingerprint is
// the compacted view of the seeded script, whatever the compaction's worker
// count: a replay under GOMAXPROCS=1, which gives TSBuild one worker, gives
// the same fingerprint.
func TestDeterminismIncludesUpdateCells(t *testing.T) {
	cfg := tinyConfig()
	cfg.BudgetsKB = []int{4}
	cfg.UpdateOps = 20
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	doc := xmltree.NewTree()
	doc.Root = doc.CopySubtree(newRunner(cfg).Doc("XMark-TX").Root)
	st, err := tier.New(doc, tier.Options{
		BudgetBytes:     4 * 1024,
		MinCompactElems: 1 << 30,
		Synchronous:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := replayScript(st, cfg); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	if got, want := res.Fingerprints["update/XMark-TX"], fingerprint(st.View().Fingerprint()); got != want {
		t.Fatalf("recorded update fingerprint %s, GOMAXPROCS=1 replay %s", got, want)
	}
}
