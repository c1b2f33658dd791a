package eval

import (
	"math"
	"strings"
	"testing"

	"treesketch/internal/esd"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

func TestESDGraphExpandsFractionalCounts(t *testing.T) {
	// A result node with avg 1.5 children must expand to a mixture of 1-
	// and 2-child elements, not a single fractional class.
	r := &Result{Root: 0, Nodes: []*RNode{
		{ID: 0, Var: "q0", VarID: 0, Label: "r", Count: 1, Edges: []REdge{{Child: 1, K: 4}}},
		{ID: 1, Var: "q1", VarID: 1, Label: "a", Count: 4, Edges: []REdge{{Child: 2, K: 1.5}}},
		{ID: 2, Var: "q2", VarID: 2, Label: "b", Count: 6},
	}}
	g := r.ESDGraph()
	if g == nil {
		t.Fatal("nil graph")
	}
	// Root has one child group (q1:a) with two distinct classes: a with 1
	// b and a with 2 b's.
	if len(g.Edges) != 2 {
		t.Fatalf("root has %d child classes, want 2 (1-b and 2-b mixture)", len(g.Edges))
	}
	var mults []float64
	for _, e := range g.Edges {
		if !strings.HasPrefix(e.Child.Label, "q1:a") {
			t.Fatalf("child label %q", e.Child.Label)
		}
		mults = append(mults, e.Mult)
	}
	if mults[0]+mults[1] != 4 {
		t.Fatalf("mixture multiplicities %v, want sum 4", mults)
	}
}

func TestESDGraphSynopsisKeepsFractions(t *testing.T) {
	r := &Result{Root: 0, Nodes: []*RNode{
		{ID: 0, Var: "q0", VarID: 0, Label: "r", Count: 1, Edges: []REdge{{Child: 1, K: 2.5}}},
		{ID: 1, Var: "q1", VarID: 1, Label: "a", Count: 2.5},
	}}
	g := r.ESDGraphSynopsis()
	if g == nil || len(g.Edges) != 1 {
		t.Fatalf("graph %+v", g)
	}
	if g.Edges[0].Mult != 2.5 {
		t.Fatalf("mult = %g, want 2.5", g.Edges[0].Mult)
	}
}

func TestESDGraphExpandedBeatsFractionalOnMixtures(t *testing.T) {
	// Ground truth: half the a's have 1 b, half have 2. An averaged answer
	// (k=1.5) should be judged nearly perfect after expansion.
	doc := xmltree.MustCompact("r(a(b),a(b,b),a(b),a(b,b))")
	q := query.MustParse("//a{/b}")
	ex := Exact(NewIndex(doc), q)

	r := &Result{Root: 0, Nodes: []*RNode{
		{ID: 0, Var: "q0", VarID: 0, Label: "r", Count: 1, Edges: []REdge{{Child: 1, K: 4}}},
		{ID: 1, Var: "q1", VarID: 1, Label: "a", Count: 4, Edges: []REdge{{Child: 2, K: 1.5}}},
		{ID: 2, Var: "q2", VarID: 2, Label: "b", Count: 6},
	}}
	dExpanded := esd.Distance(ex.ESDGraph(), r.ESDGraph())
	dFractional := esd.Distance(ex.ESDGraph(), r.ESDGraphSynopsis())
	if !(dExpanded < dFractional) {
		t.Fatalf("expanded ESD %g should beat fractional %g", dExpanded, dFractional)
	}
	if dExpanded > 1e-9 {
		t.Fatalf("expanded ESD = %g, want 0 (mixture matches truth exactly)", dExpanded)
	}
}

func TestExpandVarLabelsFlag(t *testing.T) {
	r := &Result{Root: 0, Nodes: []*RNode{
		{ID: 0, Var: "q0", VarID: 0, Label: "r", Count: 1, Edges: []REdge{{Child: 1, K: 1}}},
		{ID: 1, Var: "q1", VarID: 1, Label: "a", Count: 1},
	}}
	plain, err := r.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Root.Label != "r" || plain.Root.Children[0].Label != "a" {
		t.Fatalf("plain labels: %s", plain.Compact())
	}
	tagged, err := r.expand(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if tagged.Root.Label != "q0:r" || tagged.Root.Children[0].Label != "q1:a" {
		t.Fatalf("tagged labels: %s", tagged.Compact())
	}
}

func TestReachesCache(t *testing.T) {
	tr := xmltree.MustCompact("r(a(b(c)),d)")
	sk := sketch.FromStable(stable.Build(tr))
	r := &refEnum{a: &approxer{sk: sk}}
	ids := map[string]int{}
	for _, u := range sk.Nodes {
		ids[u.Label] = u.ID
	}
	if !r.reaches(ids["r"], "c") {
		t.Fatal("r should reach c")
	}
	if r.reaches(ids["d"], "c") {
		t.Fatal("d should not reach c")
	}
	if !r.reaches(ids["c"], "c") {
		t.Fatal("c should reach itself (label occurrence)")
	}
	if _, ok := r.reach["c"]; !ok {
		t.Fatal("reach result not cached")
	}
}

func TestEmbeddingWorkBudgetTruncates(t *testing.T) {
	// A wide synopsis with many fruitless branches: tiny MaxEmbeddings
	// must bound the work and set Truncated rather than hang.
	src := "r("
	for i := 0; i < 30; i++ {
		if i > 0 {
			src += ","
		}
		src += "x(y(z(w(v))))"
	}
	src += ",target)"
	tr := xmltree.MustCompact(src)
	sk := sketch.FromStable(stable.Build(tr))
	r := Approx(sk, query.MustParse("//target"), Options{MaxEmbeddings: 1})
	if r.Empty && !r.Truncated {
		t.Fatal("result empty without truncation flag")
	}
}

func TestSelectivityOptionalClamp(t *testing.T) {
	// An optional variable with average 0.5 matches per element clamps to
	// factor 1 (elements without matches still produce a NULL binding).
	r := &Result{Root: 0, VarOptional: []bool{false, false, true}, Nodes: []*RNode{
		{ID: 0, Var: "q0", VarID: 0, Label: "r", Count: 1, Edges: []REdge{{Child: 1, K: 2}}},
		{ID: 1, Var: "q1", VarID: 1, Label: "a", Count: 2, Edges: []REdge{{Child: 2, K: 0.5}}},
		{ID: 2, Var: "q2", VarID: 2, Label: "b", Count: 1},
	}}
	if sel := r.Selectivity(); math.Abs(sel-2) > 1e-12 {
		t.Fatalf("Selectivity = %g, want 2 (optional clamped)", sel)
	}
	// Required: the 0.5 factor stays.
	r.VarOptional[2] = false
	if sel := r.Selectivity(); math.Abs(sel-1) > 1e-12 {
		t.Fatalf("Selectivity = %g, want 1", sel)
	}
}

func TestTotalNodes(t *testing.T) {
	r := &Result{Root: 0, Nodes: []*RNode{
		{ID: 0, Count: 1},
		{ID: 1, Count: 4.5},
	}}
	if got := r.TotalNodes(); got != 5.5 {
		t.Fatalf("TotalNodes = %g, want 5.5", got)
	}
}
