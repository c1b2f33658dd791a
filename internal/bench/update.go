package bench

import (
	"fmt"
	"sort"

	"treesketch/internal/eval"
	"treesketch/internal/exp"
	"treesketch/internal/obs"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
	"treesketch/internal/xmltree"
)

// benchUpdate is the live-update leg: it drives a synchronous tier stack
// over a private copy of the dataset's document through a seeded
// insert/delete script, records the accuracy of base+delta answers against
// exact truth on the mutated document, then compacts. The compacted base
// must fingerprint identically to a rebuild of the mutated document; a
// mismatch fails the whole run, because it means the incremental path
// diverged from the batch pipeline. The compacted view's fingerprint goes
// into the record.
func benchUpdate(res *Result, r *exp.Runner, cfg Config, ds string) error {
	budgetKB := cfg.maxBudgetKB()
	doc := copyTree(r.Doc(ds)) // the runner caches its documents; the stack owns this copy
	st, err := tier.New(doc, tier.Options{
		BudgetBytes: budgetKB * 1024,
		// The one compaction is the explicit one below.
		MinCompactElems: 1 << 30,
		// Segment merges run inline, so the tiers the accuracy phase reads
		// depend on the seed alone, not on timing.
		Synchronous: true,
	})
	if err != nil {
		return fmt.Errorf("bench: %s: %w", ds, err)
	}
	elems0 := doc.Size()
	if err := replayScript(st, cfg); err != nil {
		return fmt.Errorf("bench: %s: %w", ds, err)
	}
	v := st.View()
	um := Metrics{
		"update_ops":         float64(cfg.UpdateOps),
		"update_delta_elems": float64(v.DeltaElems()),
		"update_tiers":       float64(v.Tiers()),
	}

	// Base+delta answers on the generated workload against exact ground
	// truth on the mutated document, using the paper's error measure. Exact
	// truth, not a same-budget rebuild, is the reference: two independently
	// compressed sketches can legitimately disagree on individual queries,
	// which would measure the compressor's variance, not the incremental
	// path's fidelity. The rebuild comparison is the fingerprint check
	// below, where it is exact.
	w := r.Workload(ds, cfg.WorkloadSize, false)
	ix := eval.NewIndex(st.Doc())
	truths := make([]float64, len(w))
	for i, item := range w {
		truths[i] = eval.Exact(ix, item.Q).Tuples
	}
	sanity := quantile10(truths)
	var errSum float64
	for i, item := range w {
		_, got, _ := v.Estimate(item.Q, eval.Options{})
		errSum += eval.RelativeError(truths[i], got, sanity)
	}
	um["update_mre_pct"] = 100 * errSum / float64(len(w))

	st.Compact()
	finalOracle := tier.CompactSketch(stable.Build(copyTree(st.Doc())), budgetKB*1024, 0, obs.NewRegistry())
	if got, want := st.View().Base.Fingerprint(), finalOracle.Fingerprint(); got != want {
		return fmt.Errorf("bench: %s: post-compaction base fingerprint %016x != rebuild oracle %016x", ds, got, want)
	}
	res.Benchmarks["update/"+ds] = um
	res.Fingerprints["update/"+ds] = fingerprint(st.View().Fingerprint())
	progress(cfg, "%-10s update: %d ops, %+d elems over %d tiers, pre-compaction MRE %.4f%%",
		ds, cfg.UpdateOps, st.Doc().Size()-elems0, v.Tiers(), um["update_mre_pct"])
	return nil
}

// benchNegative is the negative-workload leg: queries guaranteed empty on
// every dataset must produce empty approximate answers at the largest
// budget (the paper's Section 6.1 claim). One cell per dataset; a non-empty
// answer shows up as empty_answer_rate < 1.
func benchNegative(res *Result, r *exp.Runner, cfg Config) {
	for _, row := range r.NegativeWorkload(cfg.maxBudgetKB()) {
		if row.Queries > 0 {
			res.Benchmarks["negative/"+row.Name] = Metrics{
				"empty_answer_rate": float64(row.EmptyAnswers) / float64(row.Queries),
			}
		}
		progress(cfg, "%-10s negative: %d/%d empty answers", row.Name, row.EmptyAnswers, row.Queries)
	}
}

// updateRNG is a splitmix-style LCG: deterministic across platforms, cheap,
// and good enough to scatter ops over the document.
type updateRNG uint64

func (r *updateRNG) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// maxProtoElems bounds a cloned insert subtree so a single op stays small
// relative to the document.
const maxProtoElems = 64

// replayScript applies the leg's seeded script of cfg.UpdateOps operations
// to st.
func replayScript(st *tier.Stack, cfg Config) error {
	rng := updateRNG(uint64(cfg.Seed)*2654435761 + 1)
	for i := 0; i < cfg.UpdateOps; i++ {
		if err := nextUpdateOp(st, &rng); err != nil {
			return fmt.Errorf("update op %d: %w", i, err)
		}
	}
	return nil
}

// nextUpdateOp draws the next scripted operation against st and applies
// it.
func nextUpdateOp(st *tier.Stack, rng *updateRNG) error {
	var live []*xmltree.Node
	st.Doc().PreOrder(func(n *xmltree.Node) { live = append(live, n) })
	// Bias 5:3 toward inserts so the document grows over the script (and
	// force growth when it is tiny), exercising both signs.
	insert := rng.next()%8 < 5 || len(live) < 16
	if insert {
		src := live[int(rng.next()%uint64(len(live)))]
		for subtreeSize(src, maxProtoElems+1) > maxProtoElems {
			src = src.Children[int(rng.next()%uint64(len(src.Children)))]
		}
		proto := xmltree.NewTree()
		proto.Root = cloneNode(proto, src)
		parent := live[int(rng.next()%uint64(len(live)))]
		_, err := st.Insert(parent.OID, proto)
		return err
	}
	victim := live[int(rng.next()%uint64(len(live)-1))+1] // never the root
	return st.Delete(victim.OID)
}

// quantile10 is the 10-percentile of the true counts — the same sanity
// bound exp.SanityBound derives for a ground-truth workload (Section 6.1's
// s), recomputed here because the mutated document's truths are fresh.
func quantile10(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[len(s)/10]
}

// subtreeSize counts nodes under n, giving up at cap (callers only need to
// know whether the subtree is small enough).
func subtreeSize(n *xmltree.Node, cap int) int {
	total := 1
	for _, c := range n.Children {
		if total >= cap {
			return total
		}
		total += subtreeSize(c, cap-total)
	}
	return total
}

// cloneNode deep-copies src into t.
func cloneNode(t *xmltree.Tree, src *xmltree.Node) *xmltree.Node {
	n := t.NewNode(src.Label)
	for _, c := range src.Children {
		n.Children = append(n.Children, cloneNode(t, c))
	}
	return n
}

// copyTree deep-copies a whole document.
func copyTree(src *xmltree.Tree) *xmltree.Tree {
	t := xmltree.NewTree()
	t.Root = cloneNode(t, src.Root)
	return t
}
