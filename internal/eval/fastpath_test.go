package eval

import (
	"errors"
	"math"
	"strings"
	"testing"

	"treesketch/internal/datagen"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// TestApproxPruningOnHeavyTwig is the deterministic tail-latency regression
// guard: the XMark heavy twig (nested recursive parlist/listitem descent
// under a branching item) is exactly the query shape whose enumeration tail
// dominated approx p99 before the fast path. Rather than asserting
// wall-clock numbers (noisy), it asserts the mechanisms that bound the
// tail are engaging: the can-complete memo must prune dead DFS branches
// and must serve repeated sub-questions from cache. Zero prunes here means
// the fast path has regressed to exhaustive enumeration.
func TestApproxPruningOnHeavyTwig(t *testing.T) {
	doc := datagen.Generate(datagen.XMark, 6000, 1)
	st := stable.Build(doc)
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 3 * 1024})
	q := query.MustParse("//item{//parlist//listitem{//parlist//listitem?},//description//text?}")

	reg := obs.NewRegistry()
	fast := Approx(sk, q, Options{Metrics: reg})
	if fast.Truncated {
		t.Fatal("heavy twig truncated; enlarge MaxEmbeddings or shrink the document")
	}
	snap := map[string]int64{}
	for _, c := range []string{"eval.approx.embed_prunes", "eval.approx.embed_memo_hits", "eval.approx.embeddings"} {
		snap[c] = reg.Counter(c).Value()
	}
	if snap["eval.approx.embeddings"] == 0 {
		t.Fatal("heavy twig produced no embeddings; test document no longer matches the query")
	}
	if snap["eval.approx.embed_prunes"] == 0 {
		t.Fatalf("no embedding prunes on the heavy twig (counters: %v) — fast path regressed to exhaustive enumeration", snap)
	}
	if snap["eval.approx.embed_memo_hits"] == 0 {
		t.Fatalf("no can-complete memo hits on the heavy twig (counters: %v)", snap)
	}

	// And pruning must not change the answer.
	ref := approxRef(sk, q, Options{})
	if fb, rb := math.Float64bits(fast.Selectivity()), math.Float64bits(ref.Selectivity()); fb != rb {
		t.Fatalf("selectivity fast=%v ref=%v", fast.Selectivity(), ref.Selectivity())
	}
}

// TestExactCountersOnHeavyTwig checks the exact fast path's observability:
// dense-memo hits and label-index scans must register on a real workload.
func TestExactCountersOnHeavyTwig(t *testing.T) {
	doc := datagen.Generate(datagen.XMark, 3000, 1)
	ix := NewIndex(doc)
	q := query.MustParse("//item{//parlist//listitem,//description//text?}")
	reg := obs.Default()
	memo0 := reg.Counter("eval.exact.memo_hits").Value()
	scans0 := reg.Counter("eval.exact.label_scans").Value()
	r := Exact(ix, q)
	if r.Empty {
		t.Fatal("heavy twig empty on XMark document")
	}
	if hits := reg.Counter("eval.exact.memo_hits").Value() - memo0; hits == 0 {
		t.Fatal("no dense-memo hits on the heavy twig")
	}
	if scans := reg.Counter("eval.exact.label_scans").Value() - scans0; scans == 0 {
		t.Fatal("no label-index scans on the heavy twig")
	}
}

// TestExactTupleOverflow pins the overflow contract: a query whose
// binding-tuple count exceeds float64 range must flag Overflow and surface
// a typed error instead of silently returning +Inf as a usable count.
func TestExactTupleOverflow(t *testing.T) {
	// x has 10 a-children; 400 required /a edges multiply to 10^400 > 1.8e308.
	doc := xmltree.MustCompact("r(x(" + strings.TrimSuffix(strings.Repeat("a,", 10), ",") + "))")
	edges := make([]string, 400)
	for i := range edges {
		edges[i] = "/a"
	}
	q := query.MustParse("//x{" + strings.Join(edges, ",") + "}")
	r := Exact(NewIndex(doc), q)
	if !math.IsInf(r.Tuples, 1) {
		t.Fatalf("Tuples = %v, want +Inf", r.Tuples)
	}
	if !r.Overflow {
		t.Fatal("Overflow not set")
	}
	var oe *TupleOverflowError
	if err := r.Err(); !errors.As(err, &oe) {
		t.Fatalf("Err() = %v, want *TupleOverflowError", err)
	}
	// Sanity: the same shape below the overflow threshold stays finite and
	// error-free.
	q2 := query.MustParse("//x{/a,/a,/a}")
	r2 := Exact(NewIndex(doc), q2)
	if r2.Tuples != 1000 || r2.Err() != nil || r2.Overflow {
		t.Fatalf("small case: tuples=%v overflow=%v err=%v", r2.Tuples, r2.Overflow, r2.Err())
	}
}
