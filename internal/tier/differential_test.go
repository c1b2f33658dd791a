package tier

import (
	"testing"

	"treesketch/internal/eval"
	"treesketch/internal/exp"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// preCompactionMREFloor is the accuracy floor the spine-relative delta must
// hold against a from-scratch rebuild oracle *before* compaction (after
// compaction the two are bit-identical). The delta representation cannot
// see matches pairing new elements with off-spine base elements, so it is
// an approximation; observed mean relative error on the seeded scripts
// below stays under 0.01 across all three dataset families, so this floor
// carries a 5x margin.
const preCompactionMREFloor = 0.05

// TestDifferentialUpdatesVsRebuildOracle replays seeded insert/delete
// scripts and checks, after every batch of updates, that base+delta
// selectivities track a from-scratch stable.Build + tsbuild.Build oracle
// within the floor — and that after a forced compaction the stack is
// *exactly* the oracle: identical selectivity on every query and identical
// sketch fingerprint. Each -TX dataset family replays 40 random ops on a
// small document; one more input replays the live-mixed benchmark's
// structure-preserving script at its scale (hundreds of ops on a
// 30k-element XMark-TX), where seals and merges build real tier depth.
func TestDifferentialUpdatesVsRebuildOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replay is a long test")
	}
	small := exp.NewRunner(exp.Config{TXScale: 3000, WorkloadSize: 40, Seed: 1})
	for _, name := range exp.TXNames() {
		t.Run(name, func(t *testing.T) {
			rng := testRNG(5)
			replayDifferential(t, small, name, 6*1024, 4, 10, func(st *Stack) { randomOp(t, st, &rng) })
		})
	}
	t.Run("XMark-TX/live-mixed", func(t *testing.T) {
		large := exp.NewRunner(exp.Config{TXScale: 30000, WorkloadSize: 40, Seed: 1})
		var ls *liveScript
		replayDifferential(t, large, "XMark-TX", 20*1024, 3, 150, func(st *Stack) {
			if ls == nil {
				ls = newLiveScript(st, large.Doc("XMark-TX"), 21)
			}
			ls.step(t, st)
		})
	})
}

// replayDifferential runs one input of the differential test: batches of
// batchOps ops on a private copy of dataset name, the floor check after
// each batch, and the exact rebuild identity after a final compaction.
func replayDifferential(t *testing.T, r *exp.Runner, name string, budget, batches, batchOps int, op func(*Stack)) {
	doc := xmltree.NewTree()
	doc.Root = doc.CopySubtree(r.Doc(name).Root) // private copy; the runner caches its docs
	queries := query.Generate(r.Stable(name), 40, query.GenOptions{Seed: 11})

	opts := Options{
		BudgetBytes:     budget,
		Synchronous:     true,
		MinCompactElems: 1 << 30, // compaction only when the test asks
		Metrics:         obs.NewRegistry(),
	}
	st, err := New(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < batches; batch++ {
		for i := 0; i < batchOps; i++ {
			op(st)
		}
		v := st.View()
		if err := v.CheckConservation(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}

		oracle := rebuildOracle(t, st, budget)
		var sumErr float64
		for _, q := range queries {
			want := eval.Approx(oracle, q, eval.Options{}).Selectivity()
			_, got, _ := v.Estimate(q, eval.Options{})
			sumErr += relErr(got, want)
		}
		mre := sumErr / float64(len(queries))
		t.Logf("batch %d: pre-compaction MRE %.4f (delta %d elems, %d tiers)", batch, mre, v.DeltaElems(), v.Tiers())
		if mre > preCompactionMREFloor {
			t.Fatalf("batch %d: pre-compaction MRE %.4f above floor %.4f", batch, mre, preCompactionMREFloor)
		}
	}

	st.Compact()
	v := st.View()
	oracle := rebuildOracle(t, st, budget)
	if got, want := v.Base.Fingerprint(), oracle.Fingerprint(); got != want {
		t.Fatalf("post-compaction base fp %016x, rebuild oracle fp %016x", got, want)
	}
	for _, q := range queries {
		want := eval.Approx(oracle, q, eval.Options{}).Selectivity()
		_, got, _ := v.Estimate(q, eval.Options{})
		if got != want {
			t.Fatalf("post-compaction selectivity %v, oracle %v for %s", got, want, q)
		}
	}
}

// rebuildOracle builds the from-scratch reference sketch for the stack's
// current document state.
func rebuildOracle(t *testing.T, st *Stack, budget int) *sketch.Sketch {
	t.Helper()
	fresh := xmltree.NewTree()
	fresh.Root = fresh.CopySubtree(st.Doc().Root)
	return CompactSketch(stable.Build(fresh), budget, 0, obs.NewRegistry())
}

// relErr is the relative error with a unit sanity bound, mirroring
// eval.RelativeError's shape for estimate-vs-estimate comparison.
func relErr(got, want float64) float64 {
	den := want
	if den < 1 {
		den = 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / den
}
