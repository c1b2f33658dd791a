package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/exp"
	"treesketch/internal/metricname"
	"treesketch/internal/obs"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
	"treesketch/internal/xmltree"
)

// benchUpdate is the live-update leg: it drives a tier stack over a private
// copy of the dataset's document through a seeded insert/delete script and
// measures three things the static legs cannot — absorb throughput, query
// latency while a background compaction is in flight, and the accuracy of
// base+delta answers against a from-scratch rebuild of the mutated document.
// After the final compaction the base must fingerprint identically to the
// rebuild oracle; a mismatch fails the whole run, because it means the
// incremental path diverged from the batch pipeline.
func benchUpdate(res *Result, r *exp.Runner, reg *obs.Registry, cfg Config, ds string) error {
	progress := func(format string, args ...any) {
		if cfg.Out != nil {
			fmt.Fprintf(cfg.Out, "bench: "+format+"\n", args...)
		}
	}
	budgetKB := cfg.ServeBudgetKB
	doc := copyTree(r.Doc(ds)) // the runner caches its documents; the stack owns this copy
	st, err := tier.New(doc, tier.Options{
		BudgetBytes: budgetKB * 1024,
		// No auto-compaction: the leg measures the absorb and compaction
		// phases separately, so the trigger is explicit below.
		MinCompactElems: 1 << 30,
		// Segment merges run inline, so the tiers the pre-compaction
		// accuracy phase reads depend on the seed alone, not on timing.
		Synchronous: true,
		Metrics:     reg,
	})
	if err != nil {
		return fmt.Errorf("bench: %s: %w", ds, err)
	}

	// Absorb phase: op parameters are drawn untimed, the absorb itself
	// (maintainer update + delta-sketch build + view publish) is timed.
	hAbsorb := reg.Histogram("bench." + metricname.Clean(ds) + ".update_absorb_seconds")
	rng := updateRNG(uint64(cfg.Seed)*2654435761 + 1)
	var absorbTotal float64
	elems0 := doc.Size()
	for i := 0; i < cfg.UpdateOps; i++ {
		apply := nextUpdateOp(st, &rng)
		t0 := time.Now()
		if err := apply(); err != nil {
			return fmt.Errorf("bench: %s: update op %d: %w", ds, i, err)
		}
		sec := time.Since(t0).Seconds()
		hAbsorb.Observe(sec)
		absorbTotal += sec
	}
	v := st.View()
	um := Metrics{
		"update_ops":                float64(cfg.UpdateOps),
		"update_delta_elems":        float64(v.DeltaElems()),
		"update_tiers":              float64(v.Tiers()),
		"update_absorbs_per_sec":    rate(float64(cfg.UpdateOps), absorbTotal),
		"update_absorb_p50_seconds": hAbsorb.Quantile(0.50),
		"update_absorb_p95_seconds": hAbsorb.Quantile(0.95),
	}

	// Accuracy phase (pre-compaction): base+delta answers on the generated
	// workload against exact ground truth on the mutated document, using the
	// paper's error measure. Exact truth — not a same-budget rebuild — is
	// the reference because two independently compressed sketches can
	// legitimately disagree on individual queries (compression decisions
	// differ on the mutated label distribution), which would measure the
	// compressor's variance, not the incremental path's fidelity; the
	// rebuild comparison lives in the post-compaction fingerprint check
	// below, where it is exact. Everything is seed-deterministic, so the
	// MRE gates tight like the other accuracy metrics.
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

	// Compaction phase: fold the delta back into the base on a helper
	// goroutine while this goroutine keeps querying, recording the latency
	// of every estimate that overlapped the in-flight build. The stack is
	// synchronous, so the compaction runs inside the helper's Compact call.
	hDuring := reg.Histogram("bench." + metricname.Clean(ds) + ".update_compact_query_seconds")
	var wg sync.WaitGroup
	wg.Add(1)
	t0 := time.Now()
	go func() { defer wg.Done(); st.Compact() }()
	overlapped := 0
	for st.View().Tiers() > 0 || st.Compacting() {
		inFlight := st.Compacting()
		q0 := time.Now()
		st.View().Estimate(w[overlapped%len(w)].Q, eval.Options{})
		if inFlight {
			hDuring.Observe(time.Since(q0).Seconds())
			overlapped++
		}
	}
	wg.Wait()
	compactSec := time.Since(t0).Seconds()
	um["compaction_seconds"] = compactSec
	um["compact_overlap_queries"] = float64(overlapped)
	if overlapped > 0 {
		um["compact_query_p50_seconds"] = hDuring.Quantile(0.50)
		um["compact_query_p95_seconds"] = hDuring.Quantile(0.95)
	}

	// Post-compaction: the base must be bit-identical to the rebuild oracle.
	finalOracle := tier.CompactSketch(stable.Build(copyTree(st.Doc())), budgetKB*1024, 0, obs.NewRegistry())
	if got, want := st.View().Base.Fingerprint(), finalOracle.Fingerprint(); got != want {
		return fmt.Errorf("bench: %s: post-compaction base fingerprint %016x != rebuild oracle %016x", ds, got, want)
	}
	um["post_compact_fp_match"] = 1

	res.Benchmarks["update/"+ds] = um
	progress("%-10s update: %d ops (%.0f/s), %+d elems, pre-compaction MRE %.2f%%, compaction %.3fs (%d queries overlapped)",
		ds, cfg.UpdateOps, um["update_absorbs_per_sec"], st.Doc().Size()-elems0,
		um["update_mre_pct"], compactSec, overlapped)
	return nil
}

// benchNegative is the negative-workload leg: queries guaranteed empty on
// every dataset must produce empty approximate answers at the serving budget
// (the paper's Section 6.1 claim). One cell per dataset; a non-empty answer
// shows up as empty_answer_rate < 1 and fails the accuracy gate.
func benchNegative(res *Result, r *exp.Runner, cfg Config) {
	for _, row := range r.NegativeWorkload(cfg.ServeBudgetKB) {
		m := Metrics{
			"queries":       float64(row.Queries),
			"empty_answers": float64(row.EmptyAnswers),
		}
		if row.Queries > 0 {
			m["empty_answer_rate"] = float64(row.EmptyAnswers) / float64(row.Queries)
		}
		res.Benchmarks["negative/"+row.Name] = m
		if cfg.Out != nil {
			fmt.Fprintf(cfg.Out, "bench: %-10s negative: %d/%d empty answers\n",
				row.Name, row.EmptyAnswers, row.Queries)
		}
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

// nextUpdateOp draws the next scripted operation against st and returns a
// thunk that applies it, so callers can time the absorb without the untimed
// parameter draw (live-node scan, subtree clone) polluting the measurement.
func nextUpdateOp(st *tier.Stack, rng *updateRNG) func() error {
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
		return func() error { _, err := st.Insert(parent.OID, proto); return err }
	}
	victim := live[int(rng.next()%uint64(len(live)-1))+1] // never the root
	return func() error { return st.Delete(victim.OID) }
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
