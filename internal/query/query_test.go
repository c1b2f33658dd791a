package query

import (
	"runtime"
	"strings"
	"testing"

	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

func TestParseFigure2Query(t *testing.T) {
	// The paper's example query: for $q1 in //a[//b], $q2 in $q1//p,
	// return $q1//n and $q2//k.
	q := MustParse("//a[//b]{//p{//k?},//n?}")
	if q.NumVars() != 5 {
		t.Fatalf("NumVars = %d, want 5", q.NumVars())
	}
	if len(q.Root.Edges) != 1 {
		t.Fatalf("root edges = %d, want 1", len(q.Root.Edges))
	}
	e1 := q.Root.Edges[0]
	if e1.Optional {
		t.Fatal("q0->q1 should be required")
	}
	if got := e1.Path.String(); got != "//a[//b]" {
		t.Fatalf("path(q0,q1) = %q", got)
	}
	if len(e1.Child.Edges) != 2 {
		t.Fatalf("q1 edges = %d, want 2", len(e1.Child.Edges))
	}
	p := e1.Child.Edges[0]
	if p.Path.String() != "//p" || p.Optional {
		t.Fatalf("q1->q2 = %q optional=%v", p.Path.String(), p.Optional)
	}
	k := p.Child.Edges[0]
	if k.Path.String() != "//k" || !k.Optional {
		t.Fatalf("q2->q3 = %q optional=%v", k.Path.String(), k.Optional)
	}
	n := e1.Child.Edges[1]
	if n.Path.String() != "//n" || !n.Optional {
		t.Fatalf("q1->q4 = %q optional=%v", n.Path.String(), n.Optional)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	cases := []string{
		"//a",
		"/a/b/c",
		"//a[//b]",
		"/a[/g]//f",
		"//a[//b]{//p{//k?},//n?}",
		"//a[/b][/c]{/d}",
		"//x{/y,/z?,/w}",
		"/a[/b[/c]]",
	}
	for _, src := range cases {
		q := MustParse(src)
		if got := q.String(); got != src {
			t.Errorf("round trip %q -> %q", src, got)
		}
		q2 := MustParse(q.String())
		if q2.String() != q.String() {
			t.Errorf("re-parse changed %q", src)
		}
	}
}

// TestStringDeepPredicateLinear bounds the bytes String allocates for a
// deeply nested predicate to a small multiple of its length: each level
// renders into the caller's builder instead of copying its own.
func TestStringDeepPredicateLinear(t *testing.T) {
	const depth = 2000
	src := "//a" + strings.Repeat("[//a", depth) + strings.Repeat("]", depth)
	q := MustParse(src)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := q.String()
	runtime.ReadMemStats(&after)
	if got != src {
		t.Fatalf("deep predicate did not round-trip (%d bytes in, %d out)", len(src), len(got))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(len(src)) {
		t.Fatalf("rendering %d bytes allocated %d bytes, want at most %d", len(src), alloc, 8*len(src))
	}
}

func TestParseWhitespace(t *testing.T) {
	a := MustParse(" //a [ //b ] { /c ? , //d } ")
	b := MustParse("//a[//b]{/c?,//d}")
	if a.String() != b.String() {
		t.Fatalf("whitespace changed parse: %q vs %q", a.String(), b.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"a",          // missing axis
		"//",         // missing label
		"//a[",       // unterminated predicate
		"//a[]",      // empty predicate
		"//a{",       // unterminated braces
		"//a{}",      // empty braces
		"//a}",       // stray brace
		"//a,,//b",   // empty edge
		"//a[//b]]",  // stray bracket
		"//a{//b},,", // trailing comma garbage
		"///a",       // triple slash: '//' + '/a'? invalid label
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted %q", src)
		}
	}
}

func TestVarNumbering(t *testing.T) {
	q := MustParse("//a{//b{//c},//d},//e")
	vars := q.Vars()
	want := []string{"q0", "q1", "q2", "q3", "q4", "q5"}
	if len(vars) != len(want) {
		t.Fatalf("vars = %d, want %d", len(vars), len(want))
	}
	for i, v := range vars {
		if v.Var != want[i] {
			t.Errorf("var %d = %q, want %q", i, v.Var, want[i])
		}
	}
}

func TestValidateRejectsBadQueries(t *testing.T) {
	bad := []*Query{
		{},
		{Root: &Node{}},
		{Root: &Node{Edges: []*Edge{{Path: &Path{}, Child: &Node{}}}}},
		{Root: &Node{Edges: []*Edge{{Path: &Path{Steps: []Step{{Label: ""}}}, Child: &Node{}}}}},
		{Root: &Node{Edges: []*Edge{{Path: &Path{Steps: []Step{{Label: "a"}}}}}}},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad query", i)
		}
	}
}

func TestAxisString(t *testing.T) {
	if Child.String() != "/" || Descendant.String() != "//" {
		t.Fatal("axis strings wrong")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("not a query")
}

func TestGenerateDeterministic(t *testing.T) {
	st := stable.Build(xmltree.MustCompact("r(a*3(b(c,c),b(c)),a(b(c)),d*2(e))"))
	q1 := Generate(st, 20, GenOptions{Seed: 42})
	q2 := Generate(st, 20, GenOptions{Seed: 42})
	if len(q1) != 20 || len(q2) != 20 {
		t.Fatalf("generated %d/%d queries, want 20", len(q1), len(q2))
	}
	for i := range q1 {
		if q1[i].String() != q2[i].String() {
			t.Fatalf("query %d differs across same-seed runs", i)
		}
	}
	q3 := Generate(st, 20, GenOptions{Seed: 43})
	same := 0
	for i := range q3 {
		if q1[i].String() == q3[i].String() {
			same++
		}
	}
	if same == 20 {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestGenerateQueriesAreValid(t *testing.T) {
	st := stable.Build(xmltree.MustCompact("r(a*3(b(c,c),b(c)),a(b(c)),d*2(e(f,g)))"))
	for i, q := range Generate(st, 100, GenOptions{Seed: 7}) {
		if err := q.Validate(); err != nil {
			t.Fatalf("query %d invalid: %v (%s)", i, err, q)
		}
		if !strings.HasPrefix(q.String(), "/") {
			t.Fatalf("query %d: %q does not start with an axis", i, q)
		}
	}
}

func TestGenerateLabelsExistInDocument(t *testing.T) {
	doc := xmltree.MustCompact("r(a*2(b(c)),d(e))")
	st := stable.Build(doc)
	labels := map[string]bool{}
	for _, l := range doc.Labels() {
		labels[l] = true
	}
	var checkPath func(p *Path)
	checkPath = func(p *Path) {
		for _, s := range p.Steps {
			if !labels[s.Label] {
				t.Fatalf("generated label %q not in document", s.Label)
			}
			for _, pred := range s.Preds {
				checkPath(pred)
			}
		}
	}
	for _, q := range Generate(st, 50, GenOptions{Seed: 1}) {
		var rec func(n *Node)
		rec = func(n *Node) {
			for _, e := range n.Edges {
				checkPath(e.Path)
				rec(e.Child)
			}
		}
		rec(q.Root)
	}
}

func TestGenerateOnLeafOnlyRoot(t *testing.T) {
	// A document whose root has no children cannot support any query.
	st := stable.Build(xmltree.MustCompact("r"))
	if got := Generate(st, 5, GenOptions{Seed: 1}); len(got) != 0 {
		t.Fatalf("generated %d queries from childless root", len(got))
	}
}

func TestGenerateRespectsFanoutAndDepth(t *testing.T) {
	st := stable.Build(xmltree.MustCompact("r(a*2(b*2(c*2(d))))"))
	for _, q := range Generate(st, 50, GenOptions{Seed: 3, MaxFanout: 1, MaxQueryDepth: 1}) {
		var maxDepth func(n *Node) int
		maxDepth = func(n *Node) int {
			d := 0
			if len(n.Edges) > 1 {
				t.Fatalf("fanout exceeded: %s", q)
			}
			for _, e := range n.Edges {
				if cd := maxDepth(e.Child) + 1; cd > d {
					d = cd
				}
			}
			return d
		}
		if d := maxDepth(q.Root); d > 2 {
			t.Fatalf("query depth %d exceeds limit: %s", d, q)
		}
	}
}
