package eval

import (
	"math"
	"math/rand"
	"testing"

	"treesketch/internal/datagen"
	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// bruteTuples is a brute-force reference twig evaluator: naive recursion
// over the document tree with no memoization and no index. It re-derives
// the binding-tuple count from the semantics alone (a tuple assigns one
// element per required variable, NULL per unmatched optional subtree), so
// agreement with Exact is evidence about the evaluator, not about shared
// plumbing. Exponential in the worst case — callers keep documents small.
func bruteTuples(doc *xmltree.Tree, q *query.Query) float64 {
	qnodes := q.Vars()
	qidx := make(map[*query.Node]int)
	for i, qn := range qnodes {
		qidx[qn] = i
	}

	var axisMatches func(e *xmltree.Node, label string, desc bool, out []*xmltree.Node) []*xmltree.Node
	axisMatches = func(e *xmltree.Node, label string, desc bool, out []*xmltree.Node) []*xmltree.Node {
		for _, c := range e.Children {
			if c.Label == label {
				out = append(out, c)
			}
			if desc {
				out = axisMatches(c, label, desc, out)
			}
		}
		return out
	}

	var pathMatches func(e *xmltree.Node, p *query.Path) []*xmltree.Node
	pathMatches = func(e *xmltree.Node, p *query.Path) []*xmltree.Node {
		cur := []*xmltree.Node{e}
		for si := range p.Steps {
			step := &p.Steps[si]
			seen := make(map[int]bool)
			var next []*xmltree.Node
			for _, c := range cur {
				for _, t := range axisMatches(c, step.Label, step.Axis == query.Descendant, nil) {
					if seen[t.OID] {
						continue
					}
					seen[t.OID] = true
					sat := true
					for _, pred := range step.Preds {
						if len(pathMatches(t, pred)) == 0 {
							sat = false
							break
						}
					}
					if sat {
						next = append(next, t)
					}
				}
			}
			cur = next
		}
		return cur
	}

	var valid func(qi int, e *xmltree.Node) bool
	var tuples func(qi int, e *xmltree.Node) float64
	valid = func(qi int, e *xmltree.Node) bool {
		for _, edge := range qnodes[qi].Edges {
			if edge.Optional {
				continue
			}
			found := false
			for _, m := range pathMatches(e, edge.Path) {
				if valid(qidx[edge.Child], m) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	tuples = func(qi int, e *xmltree.Node) float64 {
		total := 1.0
		for _, edge := range qnodes[qi].Edges {
			var s float64
			for _, m := range pathMatches(e, edge.Path) {
				if valid(qidx[edge.Child], m) {
					s += tuples(qidx[edge.Child], m)
				}
			}
			if s == 0 {
				if edge.Optional {
					s = 1
				} else {
					return 0
				}
			}
			total *= s
		}
		return total
	}

	if doc.Root == nil || !valid(0, doc.Root) {
		return 0
	}
	return tuples(0, doc.Root)
}

// diffDocs yields the differential-test document corpus: every datagen
// family at small scale across several seeds, plus unstructured random
// trees over a tiny recursive alphabet (which stress //-axis dedup and
// the can-complete memo harder than the realistic families do).
func diffDocs(t *testing.T) []*xmltree.Tree {
	t.Helper()
	var docs []*xmltree.Tree
	for _, ds := range datagen.All() {
		for seed := int64(1); seed <= 3; seed++ {
			docs = append(docs, datagen.Generate(ds, 120, seed))
		}
	}
	labels := []string{"a", "b", "c", "d"}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := xmltree.NewTree()
		root := tr.NewNode("r")
		tr.Root = root
		frontier := []*xmltree.Node{root}
		for len(frontier) > 0 && tr.Size() < 80 {
			n := frontier[0]
			frontier = frontier[1:]
			kids := rng.Intn(4)
			for i := 0; i < kids; i++ {
				c := tr.NewNode(labels[rng.Intn(len(labels))])
				n.Children = append(n.Children, c)
				frontier = append(frontier, c)
			}
		}
		docs = append(docs, tr)
	}
	return docs
}

func diffQueries(t *testing.T, doc *xmltree.Tree, n int, seed int64) []*query.Query {
	t.Helper()
	st := stable.Build(doc)
	return query.Generate(st, n, query.GenOptions{
		Seed:          seed,
		MaxFanout:     2,
		MaxQueryDepth: 2,
		MaxSteps:      2,
	})
}

// TestDifferentialExactVsBruteForce cross-checks Exact against the
// brute-force evaluator on 500+ (document, query) pairs.
func TestDifferentialExactVsBruteForce(t *testing.T) {
	pairs := 0
	for di, doc := range diffDocs(t) {
		ix := NewIndex(doc)
		for _, q := range diffQueries(t, doc, 40, int64(di)+100) {
			pairs++
			got := Exact(ix, q)
			want := bruteTuples(doc, q)
			if got.Tuples != want {
				t.Fatalf("doc %d, query %s: Exact=%g brute=%g", di, q, got.Tuples, want)
			}
			if got.Empty != (want == 0) {
				t.Fatalf("doc %d, query %s: Empty=%v but brute=%g", di, q, got.Empty, want)
			}
		}
	}
	if pairs < 500 {
		t.Fatalf("only %d differential pairs, want >= 500", pairs)
	}
	t.Logf("differential pairs: %d", pairs)
}

// TestDifferentialExactVsReference checks the fast exact path is
// bit-identical to the preserved map-based reference evaluator.
func TestDifferentialExactVsReference(t *testing.T) {
	pairs := 0
	for di, doc := range diffDocs(t) {
		ix := NewIndex(doc)
		for _, q := range diffQueries(t, doc, 40, int64(di)+200) {
			pairs++
			got := Exact(ix, q)
			refT, refE := exactReference(ix, q)
			if math.Float64bits(got.Tuples) != math.Float64bits(refT) {
				t.Fatalf("doc %d, query %s: fast=%v ref=%v", di, q, got.Tuples, refT)
			}
			if got.Empty != refE {
				t.Fatalf("doc %d, query %s: Empty fast=%v ref=%v", di, q, got.Empty, refE)
			}
		}
	}
	if pairs < 500 {
		t.Fatalf("only %d pairs, want >= 500", pairs)
	}
}

// TestDifferentialApproxFastVsReference checks the approximate fast path
// is bit-identical to the reference enumeration — selectivity,
// emptiness, node counts — on every quick-grid dataset family, at two
// synopsis budgets each (a heavily merged and a lightly merged one).
func TestDifferentialApproxFastVsReference(t *testing.T) {
	for _, ds := range datagen.All() {
		doc := datagen.Generate(ds, 2000, 1)
		st := stable.Build(doc)
		for _, div := range []int{2, 8} {
			sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: st.SizeBytes() / div})
			for qi, q := range query.Generate(st, 40, query.GenOptions{Seed: int64(div)}) {
				fast := Approx(sk, q, Options{})
				ref := approxRef(sk, q, Options{})
				if fast.Truncated || ref.Truncated {
					continue // budgets diverge under truncation by design
				}
				if fast.Empty != ref.Empty {
					t.Fatalf("%s/%d q%d %s: Empty fast=%v ref=%v", ds, div, qi, q, fast.Empty, ref.Empty)
				}
				fs, rs := fast.Selectivity(), ref.Selectivity()
				if math.Float64bits(fs) != math.Float64bits(rs) {
					t.Fatalf("%s/%d q%d %s: selectivity fast=%v ref=%v", ds, div, qi, q, fs, rs)
				}
				if len(fast.Nodes) != len(ref.Nodes) {
					t.Fatalf("%s/%d q%d %s: nodes fast=%d ref=%d", ds, div, qi, q, len(fast.Nodes), len(ref.Nodes))
				}
				for i := range fast.Nodes {
					fn, rn := fast.Nodes[i], ref.Nodes[i]
					if fn.Src != rn.Src || fn.VarID != rn.VarID ||
						math.Float64bits(fn.Count) != math.Float64bits(rn.Count) {
						t.Fatalf("%s/%d q%d %s: node %d fast={src %d var %d count %v} ref={src %d var %d count %v}",
							ds, div, qi, q, i, fn.Src, fn.VarID, fn.Count, rn.Src, rn.VarID, rn.Count)
					}
				}
			}
		}
	}
}
