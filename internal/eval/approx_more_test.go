package eval

import (
	"math"
	"runtime"
	"testing"

	"treesketch/internal/datagen"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

func TestEdgeExistenceMinKCertificate(t *testing.T) {
	// Mixture {1,2,3}: the Paley-Zygmund estimate alone would be < 1, but
	// MinK = 1 certifies universal presence.
	e := sketch.Edge{Avg: 2, Sum: 6, SumSq: 14, MinK: 1}
	if p := edgeExistence(e, 3); p != 1 {
		t.Fatalf("P = %g, want 1 (MinK certificate)", p)
	}
	// Two-point {0,3} with 1 of 3 elements: P = 1/3 exactly.
	e = sketch.Edge{Avg: 1, Sum: 3, SumSq: 9, MinK: 0}
	if p := edgeExistence(e, 3); math.Abs(p-1.0/3) > 1e-12 {
		t.Fatalf("P = %g, want 1/3", p)
	}
	// Degenerate.
	if p := edgeExistence(sketch.Edge{}, 3); p != 0 {
		t.Fatalf("P = %g, want 0", p)
	}
}

func TestBranchSelExactAfterMergeOnUniversalPredicate(t *testing.T) {
	// Entries with 1, 2, or 3 accessions merged into one cluster: the
	// predicate [/acc] is true for every entry, and the MinK certificate
	// keeps the estimate exact despite the merge.
	tr := xmltree.MustCompact("r(e(acc),e(acc,acc),e(acc,acc,acc),e(acc),e(acc,acc))")
	st := stable.Build(tr)
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 1})
	r := Approx(sk, query.MustParse("//e[/acc]"), Options{})
	if got := r.Selectivity(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("selectivity = %g, want 5 (predicate universally true)", got)
	}
}

func TestBranchSelTwoMomentOnRareBurstyPredicate(t *testing.T) {
	// One of four movies has 3 awards; the rest none. After full merge the
	// edge is {0,0,0,3}: P = (3/4)^2 / (9/4)... = Sum^2/(Count*SumSq) =
	// 9/(4*9) = 1/4 — exactly the fraction with awards. PaperMode's rule
	// (k = 0.75 < 1, single term) uses 0.75 instead.
	tr := xmltree.MustCompact("r(m(aw,aw,aw),m(t),m(t),m(t))")
	st := stable.Build(tr)
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 1})
	q := query.MustParse("//m[/aw]")
	refined := Approx(sk, q, Options{}).Selectivity()
	if math.Abs(refined-1) > 1e-9 {
		t.Fatalf("refined selectivity = %g, want 1 (exact for two-point counts)", refined)
	}
	paper := Approx(sk, q, Options{PaperMode: true}).Selectivity()
	if math.Abs(paper-3) > 1e-9 {
		// 4 movies * 0.75 = 3: the Figure 8 estimate.
		t.Fatalf("paper-mode selectivity = %g, want 3", paper)
	}
}

func TestDisablePruneKeepsUnsatisfiedNodes(t *testing.T) {
	tr := xmltree.MustCompact("r(a(b),a(c))")
	st := stable.Build(tr)
	sk := sketch.FromStable(st)
	q := query.MustParse("//a{/b}")
	pruned := Approx(sk, q, Options{})
	raw := approxUnpruned(sk, q, Options{})
	if len(raw.Nodes) <= len(pruned.Nodes) {
		t.Fatalf("unpruned result (%d nodes) should exceed pruned (%d)", len(raw.Nodes), len(pruned.Nodes))
	}
}

func TestApproxResultNodeIDsDeterministic(t *testing.T) {
	tr := xmltree.MustCompact("r(x(f),y(f),z(f))")
	st := stable.Build(tr)
	sk := sketch.FromStable(st)
	q := query.MustParse("//f")
	a := Approx(sk, q, Options{})
	b := Approx(sk, q, Options{})
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("node counts differ across runs")
	}
	for i := range a.Nodes {
		if a.Nodes[i].Src != b.Nodes[i].Src || a.Nodes[i].Var != b.Nodes[i].Var {
			t.Fatalf("node %d differs: %+v vs %+v", i, a.Nodes[i], b.Nodes[i])
		}
	}
}

func TestBestAssignmentSelNoPreds(t *testing.T) {
	a := &approxer{sc: &approxScratch{}}
	a.sc.pushRec(2, 1, []int32{1, 2})
	steps := query.MustParse("//a/b").Root.Edges[0].Path.Steps
	if got := a.bestAssignmentSel(steps, 0); got != 1 {
		t.Fatalf("sel = %g, want 1 for predicate-free steps", got)
	}
}

// retainedPerOp runs op n times and reports the live heap it left behind,
// in bytes per call, measured after a full collection on both sides. The
// evaluator's scratch pool is resident by design, so it must hold the same
// number of scratches on both sides: a collection moves pooled scratches
// to the pool's victim cache and frees the previous victims, so two
// untimed calls, each followed by a collection, leave exactly the one the
// second call used, as the measured calls do.
func retainedPerOp(n int, op func()) float64 {
	var before, after runtime.MemStats
	op()
	runtime.GC()
	op()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(op) // and whatever fixtures it holds
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
}

// heavyStream returns a merged XMark synopsis and a stream of heavy twigs
// generated against its document: wide, deep, predicate-rich.
func heavyStream() (*sketch.Sketch, []*query.Query) {
	st := stable.Build(datagen.Generate(datagen.XMark, 10000, 1))
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 3 << 10})
	return sk, query.Generate(st, 600, query.GenOptions{Seed: 3, MaxFanout: 3, MaxQueryDepth: 3, MaxSteps: 3, PredProb: 0.5})
}

// TestApproxRetainsNothingPerEvaluation pins that no evaluation state
// outlives the query or the synopsis it describes. A server parses a fresh
// *query.Query per request, and a live dataset evaluates throwaway delta
// sketches, so anything cached by either pointer grows the heap with every
// request.
func TestApproxRetainsNothingPerEvaluation(t *testing.T) {
	const src = "//a{//b//c?,//d?}"
	const budget = 64 // bytes per evaluation; GC accounting noise stays far below
	opts := Options{Metrics: obs.NewRegistry()}
	sk := fuzzSketch()
	Approx(sk, query.MustParse(src), opts) // registers every metric up front

	// A stream of varied, heavy twigs: were pooled scratch buffers kept at
	// whatever size the heaviest query so far needed, the pool would grow
	// along the stream. What a capped pool keeps is a constant, so enough
	// passes put it far below the budget, while an uncapped pool's growth
	// (some 640 KB on this stream) stays far above.
	heavy, stream := heavyStream()
	next := 0
	perHeavy := retainedPerOp(8*len(stream), func() {
		Approx(heavy, stream[next%len(stream)], opts)
		next++
	})
	if perHeavy > budget {
		t.Errorf("%.0f B retained per evaluation of a heavy query stream, want <= %d", perHeavy, budget)
	}
	t.Logf("retained: %.1f B per heavy-stream evaluation", perHeavy)

	perQuery := retainedPerOp(20000, func() {
		Approx(sk, query.MustParse(src), opts)
	})
	if perQuery > budget {
		t.Errorf("%.0f B retained per freshly parsed query, want <= %d", perQuery, budget)
	}

	q := query.MustParse(src)
	perSketch := retainedPerOp(400, func() {
		Approx(fuzzSketch(), q, opts)
	})
	if perSketch > budget {
		t.Errorf("%.0f B retained per single-use sketch, want <= %d", perSketch, budget)
	}
	t.Logf("retained: %.1f B per parsed query, %.1f B per sketch", perQuery, perSketch)
}
