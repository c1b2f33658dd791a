package eval

import (
	"math"
	"testing"
	"testing/quick"

	"treesketch/internal/esd"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

func TestIndexChildrenAndDescendants(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b(c),b),a(c),b)")
	ix := NewIndex(doc)
	root := doc.Root
	if got := len(ix.Children(root, "a")); got != 2 {
		t.Fatalf("children a = %d, want 2", got)
	}
	if got := len(ix.Children(root, "b")); got != 1 {
		t.Fatalf("children b = %d, want 1", got)
	}
	if got := len(ix.Descendants(root, "b")); got != 3 {
		t.Fatalf("descendants b = %d, want 3", got)
	}
	if got := len(ix.Descendants(root, "c")); got != 2 {
		t.Fatalf("descendants c = %d, want 2", got)
	}
	a1 := root.Children[0]
	if got := len(ix.Descendants(a1, "c")); got != 1 {
		t.Fatalf("descendants c under a1 = %d, want 1", got)
	}
	if !ix.IsAncestor(root, a1) || ix.IsAncestor(a1, root) || ix.IsAncestor(a1, a1) {
		t.Fatal("IsAncestor wrong")
	}
}

func exactOf(doc string, q string) *ExactResult {
	tr := xmltree.MustCompact(doc)
	return Exact(NewIndex(tr), query.MustParse(q))
}

func TestExactSimplePaths(t *testing.T) {
	cases := []struct {
		doc, q string
		tuples float64
	}{
		{"r(a,a,a)", "//a", 3},
		{"r(a,a,a)", "/a", 3},
		{"r(a(b),a)", "/a/b", 1},
		{"r(a(b),a(b,b))", "//b", 3},
		{"r(a(b),a(b,b))", "//a{/b}", 3}, // (a1,b1),(a2,b2),(a2,b3)
		{"r(a(b),c(b))", "/a/b", 1},
		{"r(a(b(c)))", "//c", 1},
		{"r(a,b)", "//z", 0},
	}
	for _, c := range cases {
		r := exactOf(c.doc, c.q)
		if r.Tuples != c.tuples {
			t.Errorf("%s on %s: tuples = %g, want %g", c.q, c.doc, r.Tuples, c.tuples)
		}
		if (c.tuples == 0) != r.Empty {
			t.Errorf("%s on %s: Empty = %v", c.q, c.doc, r.Empty)
		}
	}
}

func TestExactPredicates(t *testing.T) {
	cases := []struct {
		doc, q string
		tuples float64
	}{
		{"r(a(b),a(c))", "//a[/b]", 1},
		{"r(a(b),a(c))", "//a[/c]", 1},
		{"r(a(b),a(c))", "//a[/z]", 0},
		{"r(a(x(b)),a(c))", "//a[//b]", 1},
		{"r(a(b,c),a(c))", "//a[/b][/c]", 1},
		{"r(a(x(y)),a(x))", "//a[/x[/y]]", 1},
	}
	for _, c := range cases {
		if r := exactOf(c.doc, c.q); r.Tuples != c.tuples {
			t.Errorf("%s on %s: tuples = %g, want %g", c.q, c.doc, r.Tuples, c.tuples)
		}
	}
}

func TestExactRequiredVsOptionalEdges(t *testing.T) {
	doc := "r(a(b),a(c))"
	// Required child edge: only the a with a b child binds q1.
	if r := exactOf(doc, "//a{/b}"); r.Tuples != 1 {
		t.Fatalf("required: tuples = %g, want 1", r.Tuples)
	}
	// Optional child edge: both a's bind; the one without b contributes a
	// NULL binding.
	if r := exactOf(doc, "//a{/b?}"); r.Tuples != 2 {
		t.Fatalf("optional: tuples = %g, want 2", r.Tuples)
	}
}

func TestExactValidityPropagation(t *testing.T) {
	// q1 binds a only if it has a p child that itself has a k child.
	doc := "r(a(p(k)),a(p),a)"
	if r := exactOf(doc, "//a{/p{/k}}"); r.Tuples != 1 {
		t.Fatalf("tuples = %g, want 1", r.Tuples)
	}
}

func TestExactDedupAcrossStepSets(t *testing.T) {
	// Both x's reach the same b via //: it must bind q1 once.
	doc := "r(x(x(b)))"
	if r := exactOf(doc, "//b"); r.Tuples != 1 {
		t.Fatalf("tuples = %g, want 1", r.Tuples)
	}
}

func TestExactHandPicked(t *testing.T) {
	// d(a1(n,p(k,k),b), a2(n,p(k)), a3(p(k,k,k))): query selects authors
	// with a book, returning their papers with keywords and names.
	doc := "d(a(n,p(k,k),b),a(n,p(k)),a(p(k,k,k)))"
	r := exactOf(doc, "//a[/b]{/p{/k?},/n?}")
	if r.Tuples != 2 {
		t.Fatalf("tuples = %g, want 2", r.Tuples)
	}
	nt, err := r.NestingTree(0)
	if err != nil {
		t.Fatal(err)
	}
	// Nesting tree: d(a(p(k,k),n)) -> 6 nodes.
	if nt.Size() != 6 {
		t.Fatalf("nesting tree size = %d, want 6: %s", nt.Size(), nt.Compact())
	}
}

func TestNestingTreeCap(t *testing.T) {
	tr := xmltree.MustCompact("r(a*50(b*20))")
	r := Exact(NewIndex(tr), query.MustParse("//a{/b}"))
	if _, err := r.NestingTree(10); err == nil {
		t.Fatal("NestingTree ignored cap")
	}
}

func approxStable(doc, q string) (*ExactResult, *Result) {
	tr := xmltree.MustCompact(doc)
	st := stable.Build(tr)
	ex := Exact(NewIndex(tr), query.MustParse(q))
	ap := Approx(sketch.FromStable(st), query.MustParse(q), Options{})
	return ex, ap
}

func TestApproxExactOnStableSynopsis(t *testing.T) {
	cases := []struct {
		doc, q string
	}{
		{"r(a,a,a)", "//a"},
		{"r(a(b),a(b,b))", "//a{/b}"},
		{"r(a(b),a(c))", "//a[/b]"},
		{"r(a(b),a(c))", "//a{/b?}"},
		{"d(a(n,p(k,k),b),a(n,p(k)),a(p(k,k,k)))", "//a[/b]{/p{/k?},/n?}"},
		{"r(x(a(b,b)),x(a(b)),y(a(b,b,b)))", "//a{/b}"},
		{"r(a(p(k)),a(p),a)", "//a{/p{/k}}"},
		{"r(a(b,c),a(b),a(c))", "//a[/b][/c]"},
	}
	for _, c := range cases {
		ex, ap := approxStable(c.doc, c.q)
		if ex.Empty != ap.Empty {
			t.Errorf("%s on %s: Empty exact=%v approx=%v", c.q, c.doc, ex.Empty, ap.Empty)
			continue
		}
		if ex.Empty {
			continue
		}
		sel := ap.Selectivity()
		if math.Abs(sel-ex.Tuples) > 1e-9*(1+ex.Tuples) {
			t.Errorf("%s on %s: selectivity %g, exact %g", c.q, c.doc, sel, ex.Tuples)
		}
		d := esd.Distance(ex.ESDGraph(), ap.ESDGraph())
		if d > 1e-9 {
			t.Errorf("%s on %s: ESD to exact = %g, want 0", c.q, c.doc, d)
		}
	}
}

func TestApproxEmptyOnNegativeQuery(t *testing.T) {
	_, ap := approxStable("r(a(b))", "//z")
	if !ap.Empty {
		t.Fatal("negative query not Empty")
	}
	if ap.Selectivity() != 0 {
		t.Fatalf("Selectivity = %g, want 0", ap.Selectivity())
	}
	if ap.ESDGraph() != nil {
		t.Fatal("ESDGraph of empty result should be nil")
	}
}

func TestApproxRequiredVariableEmpty(t *testing.T) {
	// //a{/z} has bindings for q1 but none for required q2.
	_, ap := approxStable("r(a(b))", "//a{/z}")
	if !ap.Empty {
		t.Fatal("expected empty result")
	}
}

// figure9Sketch builds the synopsis of the paper's Figure 9(b) restricted
// to the d[/g]//f branch that the worked example computes.
func figure9Sketch() *sketch.Sketch {
	mk := func(id int, label string, count int, edges ...sketch.Edge) *sketch.Node {
		return &sketch.Node{ID: id, Label: label, Count: count, Edges: edges}
	}
	ed := func(child int, avg float64, srcCount int) sketch.Edge {
		c := float64(srcCount)
		return sketch.Edge{Child: child, Avg: avg, Sum: avg * c, SumSq: avg * avg * c}
	}
	sk := &sketch.Sketch{Root: 0}
	sk.Nodes = []*sketch.Node{
		mk(0, "r", 1, ed(1, 10, 1)),
		mk(1, "a", 10, ed(2, 2, 10)),
		mk(2, "d", 20, ed(3, 0.5, 20), ed(4, 0.6, 20), ed(5, 0.7, 20)),
		mk(3, "f", 10, ed(6, 1.5, 10)),
		mk(4, "g1", 12),
		mk(5, "g2", 14),
		mk(6, "c", 15),
	}
	// Distinct g classes share the label g (the paper's G1 and G2).
	sk.Nodes[4].Label = "g"
	sk.Nodes[5].Label = "g"
	return sk
}

func TestFigure9WorkedExample(t *testing.T) {
	// In PaperMode the output matches the paper's Example 4.1 verbatim.
	sk := figure9Sketch()
	q := query.MustParse("//a{/d[/g]//f{/c?}}")
	r := Approx(sk, q, Options{PaperMode: true})
	if r.Empty {
		t.Fatal("result empty")
	}
	byVar := map[string]*RNode{}
	for _, rn := range r.Nodes {
		byVar[rn.Var] = rn
	}
	// rQ -> AQ with count 10.
	root := r.Nodes[r.Root]
	if len(root.Edges) != 1 || math.Abs(root.Edges[0].K-10) > 1e-12 {
		t.Fatalf("root edge = %+v, want k=10", root.Edges)
	}
	// AQ -> FQ with k = nt * s = (2 * 0.5) * (0.6 + 0.7 - 0.6*0.7) = 0.88.
	aq := byVar["q1"]
	if aq == nil || len(aq.Edges) != 1 {
		t.Fatalf("AQ edges = %+v", aq)
	}
	if got := aq.Edges[0].K; math.Abs(got-0.88) > 1e-12 {
		t.Fatalf("k(AQ,FQ) = %g, want 0.88 (paper's Example 4.1)", got)
	}
	// FQ -> CQ with k = 1.5.
	fq := byVar["q2"]
	if fq == nil || len(fq.Edges) != 1 || math.Abs(fq.Edges[0].K-1.5) > 1e-12 {
		t.Fatalf("FQ edges = %+v, want k=1.5", fq.Edges)
	}
	// Selectivity: 10 * 0.88 * 1.5 = 13.2.
	if sel := r.Selectivity(); math.Abs(sel-13.2) > 1e-9 {
		t.Fatalf("Selectivity = %g, want 13.2", sel)
	}
}

func TestFigure9RefinedMode(t *testing.T) {
	// In the default refined mode the two-moment existence estimator reads
	// the hand-built synopsis's zero-variance statistics as "every d
	// element has g children" (P = Sum^2/(Count*SumSq) = 1), so the [/g]
	// branch passes for all elements: k(AQ,FQ) = nt*1 = 1, and the
	// required-edge conditioning leaves k(rQ,AQ) at 10 since k >= 1.
	sk := figure9Sketch()
	q := query.MustParse("//a{/d[/g]//f{/c?}}")
	r := Approx(sk, q, Options{})
	byVar := map[string]*RNode{}
	for _, rn := range r.Nodes {
		byVar[rn.Var] = rn
	}
	root := r.Nodes[r.Root]
	if got := root.Edges[0].K; math.Abs(got-10) > 1e-12 {
		t.Fatalf("k(rQ,AQ) = %g, want 10", got)
	}
	if got := byVar["q1"].Edges[0].K; math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("k(AQ,FQ) = %g, want 1.0", got)
	}
	if sel := r.Selectivity(); math.Abs(sel-15) > 1e-9 {
		t.Fatalf("Selectivity = %g, want 15", sel)
	}
}

func TestBranchSelCertainty(t *testing.T) {
	// When some embedding yields count >= 1 the branch selectivity is
	// exactly 1 (Figure 8, lines 8-9).
	sk := figure9Sketch()
	// Raise one g edge count above 1.
	sk.Nodes[2].Edges[1].Avg = 1.2
	q := query.MustParse("//a{/d[/g]//f}")
	r := Approx(sk, q, Options{})
	byVar := map[string]*RNode{}
	for _, rn := range r.Nodes {
		byVar[rn.Var] = rn
	}
	if got := byVar["q1"].Edges[0].K; math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("k = %g, want 1.0 (selectivity clamped to 1)", got)
	}
}

func TestCountsAggregateAlongMultiplePaths(t *testing.T) {
	// Two synopsis paths lead to the same f class; counts must add
	// (Figure 7, line 12).
	mk := func(id int, label string, count int, edges ...sketch.Edge) *sketch.Node {
		return &sketch.Node{ID: id, Label: label, Count: count, Edges: edges}
	}
	ed := func(child int, avg float64, srcCount int) sketch.Edge {
		c := float64(srcCount)
		return sketch.Edge{Child: child, Avg: avg, Sum: avg * c, SumSq: avg * avg * c}
	}
	sk := &sketch.Sketch{Root: 0, Nodes: []*sketch.Node{
		mk(0, "r", 1, ed(1, 2, 1), ed(2, 3, 1)),
		mk(1, "x", 2, ed(3, 1, 2)),
		mk(2, "y", 3, ed(3, 2, 3)),
		mk(3, "f", 8),
	}}
	r := Approx(sk, query.MustParse("//f"), Options{})
	root := r.Nodes[r.Root]
	if len(root.Edges) != 1 {
		t.Fatalf("edges = %+v", root.Edges)
	}
	// 2*1 via x + 3*2 via y = 8.
	if got := root.Edges[0].K; math.Abs(got-8) > 1e-12 {
		t.Fatalf("k = %g, want 8", got)
	}
}

func TestTruncationFlag(t *testing.T) {
	tr := xmltree.MustCompact("r(a(b(c),b(c)),a(b(c)))")
	st := stable.Build(tr)
	r := Approx(sketch.FromStable(st), query.MustParse("//c"), Options{MaxEmbeddings: 1})
	if !r.Truncated {
		t.Fatal("expected truncation with MaxEmbeddings=1")
	}
}

func TestResultExpandMatchesExactOnStable(t *testing.T) {
	doc := "d(a(n,p(k,k),b),a(n,p(k)),a(p(k,k,k)))"
	ex, ap := approxStable(doc, "//a[/b]{/p{/k?},/n?}")
	nt, err := ex.NestingTree(0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ap.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != nt.Size() {
		t.Fatalf("expanded size %d, exact nesting tree %d", out.Size(), nt.Size())
	}
}

func TestRelativeError(t *testing.T) {
	cases := []struct {
		truth, est, sanity, want float64
	}{
		{100, 90, 10, 0.1},
		{100, 110, 10, 0.1},
		{0, 0, 10, 0},
		{5, 10, 10, 0.5}, // sanity bound kicks in
		{0, 5, 10, 0.5},
	}
	for _, c := range cases {
		if got := RelativeError(c.truth, c.est, c.sanity); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelativeError(%g,%g,%g) = %g, want %g", c.truth, c.est, c.sanity, got, c.want)
		}
	}
}

// stratifiedDoc builds a random document whose labels encode their depth,
// so no label nests within itself. Evaluation over the count-stable
// synopsis is exact on these documents (Section 4.3), and on the recursive
// ones recursiveDoc builds as well: the embedding walk deduplicates node
// paths, so a multi-step descendant path counts each match once however
// many matching ancestors it has, as set-semantics XPath does.
func stratifiedDoc(seed uint64) *xmltree.Tree {
	tr := xmltree.NewTree()
	rng := seed
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	variants := []string{"a", "b"}
	var build func(depth int) *xmltree.Node
	build = func(depth int) *xmltree.Node {
		n := tr.NewNode(variants[next(2)] + itoa(depth))
		if depth < 4 {
			for i := uint64(0); i < next(4); i++ {
				n.Children = append(n.Children, build(depth+1))
			}
		}
		return n
	}
	tr.Root = tr.NewNode("r")
	for i := uint64(0); i <= next(4); i++ {
		tr.Root.Children = append(tr.Root.Children, build(1))
	}
	return tr
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	out := ""
	for v > 0 {
		out = string(rune('0'+v%10)) + out
		v /= 10
	}
	return out
}

func TestPropStableSynopsisIsExact(t *testing.T) {
	f := func(seed uint64) bool {
		tr := stratifiedDoc(seed)
		st := stable.Build(tr)
		ix := NewIndex(tr)
		sk := sketch.FromStable(st)
		queries := query.Generate(st, 8, query.GenOptions{Seed: int64(seed % (1 << 30))})
		for _, q := range queries {
			ex := Exact(ix, q)
			ap := Approx(sk, q, Options{})
			if ex.Empty != ap.Empty {
				t.Logf("seed %d: %s: Empty exact=%v approx=%v", seed, q, ex.Empty, ap.Empty)
				return false
			}
			if ex.Empty {
				continue
			}
			if ex.Tuples <= 0 {
				t.Logf("seed %d: %s: generated workload query not positive", seed, q)
				return false
			}
			sel := ap.Selectivity()
			if math.Abs(sel-ex.Tuples) > 1e-6*(1+ex.Tuples) {
				t.Logf("seed %d: %s: selectivity %g, exact %g", seed, q, sel, ex.Tuples)
				return false
			}
			if d := esd.Distance(ex.ESDGraph(), ap.ESDGraph()); d > 1e-6 {
				t.Logf("seed %d: %s: ESD %g", seed, q, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// recursiveDoc builds random documents where labels nest freely, the case
// that trips naive per-assignment embedding counting (XPath deduplicates a
// //a//b match even when the b sits under two nested a ancestors).
func recursiveDoc(seed uint64) *xmltree.Tree {
	tr := xmltree.NewTree()
	rng := seed
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	labels := []string{"a", "b", "c"}
	var build func(depth int) *xmltree.Node
	build = func(depth int) *xmltree.Node {
		n := tr.NewNode(labels[next(3)])
		if depth < 5 {
			for i := uint64(0); i < next(4); i++ {
				n.Children = append(n.Children, build(depth+1))
			}
		}
		return n
	}
	tr.Root = tr.NewNode("r")
	for i := uint64(0); i <= next(3); i++ {
		tr.Root.Children = append(tr.Root.Children, build(1))
	}
	return tr
}

// recursiveTwigs are hand-written twigs that repeat a label along one
// path, the shapes label recursion makes hard; the exactness oracles run
// them on every random document next to the generated workload.
var recursiveTwigs = []string{"//a//a//b", "//a{//a{//a}}", "//c[//a[//b]]", "//a{//a?,/b}", "//a//b//a//c"}

// summaryWorkload is n generated twigs over st plus recursiveTwigs.
func summaryWorkload(st *stable.Synopsis, n int, seed uint64) []*query.Query {
	qs := query.Generate(st, n, query.GenOptions{Seed: int64(seed % (1 << 30))})
	for _, src := range recursiveTwigs {
		qs = append(qs, query.MustParse(src))
	}
	return qs
}

// exactOnSummary reports whether the batch and the count-only evaluation
// of q over the count-stable summary sk both equal Exact bit for bit,
// Empty included.
func exactOnSummary(t *testing.T, seed uint64, ix *Index, sk *sketch.Sketch, q *query.Query, opts Options) bool {
	ex := Exact(ix, q)
	ap := Approx(sk, q, opts)
	c := Count(sk, q, opts)
	if ap.Empty != ex.Empty || c.Empty != ex.Empty || ap.Selectivity() != ex.Tuples || c.Selectivity != ex.Tuples {
		t.Logf("seed %d: %s: exact %v (empty %v), approx %v (empty %v), count %v (empty %v)",
			seed, q, ex.Tuples, ex.Empty, ap.Selectivity(), ap.Empty, c.Selectivity, c.Empty)
		return false
	}
	return true
}

func TestPropStableExactOnRecursiveDocs(t *testing.T) {
	f := func(seed uint64) bool {
		tr := recursiveDoc(seed)
		st := stable.Build(tr)
		ix := NewIndex(tr)
		sk := sketch.FromStable(st)
		for _, q := range summaryWorkload(st, 6, seed) {
			if !exactOnSummary(t, seed, ix, sk, q, Options{}) {
				return false
			}
			ex := Exact(ix, q)
			if ex.Empty {
				continue
			}
			if d := esd.Distance(ex.ESDGraph(), Approx(sk, q, Options{}).ESDGraph()); d > 1e-6 {
				t.Logf("seed %d: %s: ESD %g", seed, q, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropPaperModeExactOnStable(t *testing.T) {
	// The refinements are the identity on count-stable synopses, so
	// PaperMode must be exact there too.
	f := func(seed uint64) bool {
		tr := recursiveDoc(seed)
		st := stable.Build(tr)
		ix := NewIndex(tr)
		sk := sketch.FromStable(st)
		for _, q := range summaryWorkload(st, 4, seed) {
			if !exactOnSummary(t, seed, ix, sk, q, Options{PaperMode: true}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCompressedSketchStillAnswers(t *testing.T) {
	// On compressed synopses answers are approximate but must be sane:
	// non-negative selectivity, well-formed result graphs, Expand succeeds.
	f := func(seed uint64) bool {
		tr := stratifiedDoc(seed)
		st := stable.Build(tr)
		sk := sketch.FromStable(st)
		queries := query.Generate(st, 4, query.GenOptions{Seed: int64(seed % (1 << 30))})
		for _, q := range queries {
			r := Approx(sk, q, Options{})
			if r.Empty {
				continue
			}
			if r.Selectivity() < 0 {
				return false
			}
			if _, err := r.Expand(1 << 18); err != nil {
				t.Logf("seed %d: expand: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
