package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

func fromDoc(src string) (*xmltree.Tree, *stable.Synopsis, *Sketch) {
	tr := xmltree.MustCompact(src)
	s := stable.Build(tr)
	return tr, s, FromStable(s)
}

func TestFromStableIsZeroError(t *testing.T) {
	_, _, sk := fromDoc("r(a(b(c),b(c,c,c,c)),a(b(c),b(c,c,c,c)))")
	if sq := sk.SqErr(); sq != 0 {
		t.Fatalf("SqErr = %g, want 0", sq)
	}
	if err := sk.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFromStablePreservesCountsAndSize(t *testing.T) {
	tr, s, sk := fromDoc("bib(author*3(name,paper*2(title,year),book))")
	if sk.TotalElements() != tr.Size() {
		t.Fatalf("TotalElements = %d, want %d", sk.TotalElements(), tr.Size())
	}
	if sk.NumNodes() != s.NumNodes() || sk.NumEdges() != s.NumEdges() {
		t.Fatalf("nodes/edges = %d/%d, want %d/%d", sk.NumNodes(), sk.NumEdges(), s.NumNodes(), s.NumEdges())
	}
	if sk.SizeBytes() != s.SizeBytes() {
		t.Fatalf("SizeBytes = %d, want %d", sk.SizeBytes(), s.SizeBytes())
	}
	if sk.Height() != s.Height() {
		t.Fatalf("Height = %d, want %d", sk.Height(), s.Height())
	}
}

func TestNodeSqErrManual(t *testing.T) {
	// A cluster of 2 elements with child counts {1, 4} along one edge:
	// avg 2.5, squared error = (1-2.5)^2 + (4-2.5)^2 = 4.5.
	n := &Node{ID: 0, Label: "a", Count: 2, Edges: []Edge{{Child: 1, Avg: 2.5, Sum: 5, SumSq: 17}}}
	if sq := n.SqErr(); math.Abs(sq-4.5) > 1e-12 {
		t.Fatalf("SqErr = %g, want 4.5", sq)
	}
}

func TestEdgeTo(t *testing.T) {
	n := &Node{Edges: []Edge{{Child: 2, Avg: 1}, {Child: 5, Avg: 3}}}
	if e, ok := n.EdgeTo(5); !ok || e.Avg != 3 {
		t.Fatalf("EdgeTo(5) = %+v,%v", e, ok)
	}
	if _, ok := n.EdgeTo(3); ok {
		t.Fatal("EdgeTo(3) found a missing edge")
	}
}

func TestCompactDropsTombstones(t *testing.T) {
	_, _, sk := fromDoc("r(a(b),c(b))")
	// Kill node "c" and its edge by hand, simulating a merge tombstone.
	var cID int
	for _, u := range sk.Nodes {
		if u != nil && u.Label == "c" {
			cID = u.ID
		}
	}
	rootN := sk.Nodes[sk.Root]
	kept := rootN.Edges[:0]
	for _, e := range rootN.Edges {
		if e.Child != cID {
			kept = append(kept, e)
		}
	}
	rootN.Edges = kept
	rootN.Count = 1
	sk.Nodes[cID] = nil

	out := sk.Compact()
	if out.NumNodes() != sk.NumNodes() {
		t.Fatalf("Compact changed node count: %d vs %d", out.NumNodes(), sk.NumNodes())
	}
	if len(out.Nodes) != out.NumNodes() {
		t.Fatalf("Compact left holes: len %d, live %d", len(out.Nodes), out.NumNodes())
	}
	if err := out.Check(); err != nil {
		t.Fatal(err)
	}
	if out.Nodes[out.Root].Label != "r" {
		t.Fatalf("root label %q", out.Nodes[out.Root].Label)
	}
}

func TestCheckCatchesBadAvg(t *testing.T) {
	_, _, sk := fromDoc("r(a)")
	sk.Nodes[sk.Root].Edges[0].Avg = 99
	if err := sk.Check(); err == nil {
		t.Fatal("Check accepted inconsistent Avg")
	}
}

func TestCheckCatchesDeadEdgeTarget(t *testing.T) {
	_, _, sk := fromDoc("r(a)")
	var aID int
	for _, u := range sk.Nodes {
		if u.Label == "a" {
			aID = u.ID
		}
	}
	sk.Nodes[aID] = nil
	if err := sk.Check(); err == nil {
		t.Fatal("Check accepted edge to tombstone")
	}
}

func TestCheckCatchesCycle(t *testing.T) {
	sk := &Sketch{Root: 0, Nodes: []*Node{
		{ID: 0, Label: "a", Count: 1, Edges: []Edge{{Child: 1, Avg: 1, Sum: 1, SumSq: 1}}},
		{ID: 1, Label: "b", Count: 1, Edges: []Edge{{Child: 0, Avg: 1, Sum: 1, SumSq: 1}}},
	}}
	if err := sk.Check(); err == nil {
		t.Fatal("Check accepted cyclic sketch")
	}
}

func TestCheckCatchesSumSqViolation(t *testing.T) {
	_, _, sk := fromDoc("r(a,a)")
	// Root count 1, edge Sum 2 => SumSq must be >= 4.
	var ed *Edge
	for _, u := range sk.Nodes {
		if u.Label == "r" {
			ed = &u.Edges[0]
		}
	}
	ed.SumSq = 1
	if err := sk.Check(); err == nil {
		t.Fatal("Check accepted SumSq below Cauchy-Schwarz bound")
	}
}

// TestCheckRejectsUnusableStatistics pins the statistics the evaluator
// cannot use: NaN passes every ordered comparison, so it and the other
// non-finite or negative values are rejected by what they are, as are edges
// counting more children than the child extent holds and nodes whose ID
// is not their index.
func TestCheckRejectsUnusableStatistics(t *testing.T) {
	cases := []struct {
		name string
		mut  func(sk *Sketch, e *Edge)
	}{
		{"NaN sums", func(_ *Sketch, e *Edge) { e.Sum, e.Avg = math.NaN(), math.NaN() }},
		{"NaN SumSq", func(_ *Sketch, e *Edge) { e.SumSq = math.NaN() }},
		{"NaN MinK", func(_ *Sketch, e *Edge) { e.MinK = math.NaN() }},
		{"infinite SumSq", func(_ *Sketch, e *Edge) { e.SumSq = math.Inf(1) }},
		{"negative sums", func(_ *Sketch, e *Edge) { e.Sum, e.Avg = -2, -2 }},
		{"negative MinK", func(_ *Sketch, e *Edge) { e.MinK = -1 }},
		{"more children than the child extent", func(_ *Sketch, e *Edge) { e.Sum, e.Avg, e.SumSq = 3, 3, 9 }},
		{"ID not its index", func(sk *Sketch, _ *Edge) { sk.Nodes[1].ID = 0 }},
	}
	for _, c := range cases {
		_, _, sk := fromDoc("r(a,a)")
		if err := sk.Check(); err != nil {
			t.Fatalf("fixture invalid: %v", err)
		}
		c.mut(sk, &sk.Nodes[sk.Root].Edges[0])
		if err := sk.Check(); err == nil {
			t.Errorf("%s: Check accepted the sketch", c.name)
		}
	}
}

func TestReaches(t *testing.T) {
	_, _, sk := fromDoc("r(a(b(c)),d)")
	ids := map[string]int{}
	for _, u := range sk.Nodes {
		ids[u.Label] = u.ID
	}
	if !sk.Reaches(ids["r"], ids["c"]) {
		t.Fatal("r should reach c")
	}
	if sk.Reaches(ids["c"], ids["r"]) {
		t.Fatal("c should not reach r")
	}
	if sk.Reaches(ids["a"], ids["d"]) {
		t.Fatal("a should not reach d")
	}
	if !sk.Reaches(ids["d"], ids["d"]) {
		t.Fatal("node should reach itself")
	}
}

func TestExpandRoundTripOnStableSketch(t *testing.T) {
	// A sketch equivalent to the count-stable summary expands to a tree
	// isomorphic to the original document.
	docs := []string{
		"r",
		"r(a(b,c),a(b,c))",
		"bib(author*2(name,paper*3(title)))",
	}
	for _, src := range docs {
		tr, _, sk := fromDoc(src)
		out, err := sk.Expand(0)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if out.Size() != tr.Size() {
			t.Errorf("%s: expand size %d, want %d", src, out.Size(), tr.Size())
		}
	}
}

func TestExpandFractionalCountsPreserveTotals(t *testing.T) {
	// Root with one child cluster: 4 "a" elements averaging 1.5 "b"
	// children must materialize 6 b's in total.
	sk := &Sketch{Root: 0, Nodes: []*Node{
		{ID: 0, Label: "r", Count: 1, Edges: []Edge{{Child: 1, Avg: 4, Sum: 4, SumSq: 16}}},
		{ID: 1, Label: "a", Count: 4, Edges: []Edge{{Child: 2, Avg: 1.5, Sum: 6, SumSq: 10}}},
		{ID: 2, Label: "b", Count: 6},
	}}
	out, err := sk.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	out.PreOrder(func(n *xmltree.Node) { counts[n.Label]++ })
	if counts["a"] != 4 || counts["b"] != 6 {
		t.Fatalf("expanded counts a=%d b=%d, want 4/6", counts["a"], counts["b"])
	}
}

func TestExpandEnforcesCap(t *testing.T) {
	_, _, sk := fromDoc("r(a*100(b*10))")
	if _, err := sk.Expand(50); err == nil {
		t.Fatal("Expand ignored node cap")
	}
}

func TestExpandRejectsMultiCountRoot(t *testing.T) {
	sk := &Sketch{Root: 0, Nodes: []*Node{{ID: 0, Label: "r", Count: 2}}}
	if _, err := sk.Expand(0); err == nil {
		t.Fatal("Expand accepted root with count 2")
	}
}

func randomDoc(seed uint64) *xmltree.Tree {
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
		if depth < 4 {
			for i := uint64(0); i < next(3); i++ {
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

func TestPropFromStableInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomDoc(seed)
		sk := FromStable(stable.Build(tr))
		if err := sk.Check(); err != nil {
			t.Logf("Check: %v", err)
			return false
		}
		return sk.SqErr() == 0 && sk.TotalElements() == tr.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropCompactPreservesStructure(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomDoc(seed)
		sk := FromStable(stable.Build(tr))
		out := sk.Compact()
		return out.NumNodes() == sk.NumNodes() &&
			out.NumEdges() == sk.NumEdges() &&
			math.Abs(out.SqErr()-sk.SqErr()) < 1e-9 &&
			out.Check() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
