package xmltree

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewNodeAssignsSequentialOIDs(t *testing.T) {
	tr := NewTree()
	a := tr.NewNode("a")
	b := tr.NewNode("b")
	c := tr.NewNode("a")
	if a.OID != 0 || b.OID != 1 || c.OID != 2 {
		t.Fatalf("OIDs = %d,%d,%d; want 0,1,2", a.OID, b.OID, c.OID)
	}
	if tr.Size() != 3 {
		t.Fatalf("Size = %d, want 3", tr.Size())
	}
}

func TestInternReturnsCanonicalInstance(t *testing.T) {
	tr := NewTree()
	l1 := tr.Intern("paper")
	l2 := tr.Intern("pa" + strings.Repeat("per", 1)) // force a distinct string
	if l1 != l2 {
		t.Fatalf("interned labels differ: %q vs %q", l1, l2)
	}
}

func TestPreOrderVisitsDocumentOrder(t *testing.T) {
	tr := MustCompact("r(a(b,c),d)")
	var got []string
	tr.PreOrder(func(n *Node) { got = append(got, n.Label) })
	want := []string{"r", "a", "b", "c", "d"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("pre-order = %v, want %v", got, want)
	}
}

func TestPostOrderVisitsChildrenFirst(t *testing.T) {
	tr := MustCompact("r(a(b,c),d)")
	var got []string
	tr.PostOrder(func(n *Node) { got = append(got, n.Label) })
	want := []string{"b", "c", "a", "d", "r"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("post-order = %v, want %v", got, want)
	}
}

func TestPostOrderOIDOrderingInvariant(t *testing.T) {
	// In a pre-order-numbered tree, post-order must visit every parent after
	// all nodes of its subtree; in particular each node's OID is <= OIDs of
	// everything visited before it within its own subtree.
	tr := MustCompact("r(a(b(c,d),e),f(g))")
	visited := make(map[int]bool)
	tr.PostOrder(func(n *Node) {
		for _, c := range n.Children {
			if !visited[c.OID] {
				t.Fatalf("node %d visited before child %d", n.OID, c.OID)
			}
		}
		visited[n.OID] = true
	})
}

func TestHeight(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"r", 0},
		{"r(a)", 1},
		{"r(a(b),c)", 2},
		{"r(a(b(c(d))),e)", 4},
	}
	for _, c := range cases {
		if got := MustCompact(c.src).Height(); got != c.want {
			t.Errorf("Height(%q) = %d, want %d", c.src, got, c.want)
		}
	}
	empty := NewTree()
	if got := empty.Height(); got != -1 {
		t.Errorf("Height(empty) = %d, want -1", got)
	}
}

func TestSubtreeSizeAndDepth(t *testing.T) {
	tr := MustCompact("r(a(b,c),d(e(f)))")
	if got := SubtreeSize(tr.Root); got != 7 {
		t.Errorf("SubtreeSize(root) = %d, want 7", got)
	}
	a := tr.Root.Children[0]
	if got := SubtreeSize(a); got != 3 {
		t.Errorf("SubtreeSize(a) = %d, want 3", got)
	}
	if got := Depth(tr.Root); got != 3 {
		t.Errorf("Depth(root) = %d, want 3", got)
	}
	if got := Depth(a); got != 1 {
		t.Errorf("Depth(a) = %d, want 1", got)
	}
	if got := Depth(a.Children[0]); got != 0 {
		t.Errorf("Depth(leaf) = %d, want 0", got)
	}
	if got := SubtreeSize(nil); got != 0 {
		t.Errorf("SubtreeSize(nil) = %d, want 0", got)
	}
}

func TestCopySubtree(t *testing.T) {
	src := MustCompact("r(a(b,c),d)")
	dst := MustCompact("x")
	cp := dst.CopySubtree(src.Root.Children[0])
	if got := (&Tree{Root: cp}).Compact(); got != "a(b,c)" {
		t.Fatalf("copy = %s, want a(b,c)", got)
	}
	if cp.OID != 1 || cp.Children[1].OID != 3 || dst.Size() != 4 {
		t.Fatalf("copy OIDs %d..%d, tree size %d; want fresh OIDs 1..3 and size 4", cp.OID, cp.Children[1].OID, dst.Size())
	}
	cp.Children = nil
	if len(src.Root.Children[0].Children) != 2 {
		t.Fatal("editing the copy changed the source")
	}
}

func TestLabels(t *testing.T) {
	tr := MustCompact("r(b(a),a,c(a,b))")
	got := tr.Labels()
	want := []string{"a", "b", "c", "r"}
	if len(got) != len(want) {
		t.Fatalf("Labels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", got, want)
		}
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	tr := MustCompact("r(a*10(b*3),c)")
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsDuplicateOIDs(t *testing.T) {
	tr := MustCompact("r(a,b)")
	tr.Root.Children[1].OID = tr.Root.Children[0].OID
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate OIDs")
	}
}

func TestValidateRejectsWrongSize(t *testing.T) {
	tr := MustCompact("r(a)")
	tr.SetSize(5)
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted wrong size counter")
	}
}

func TestValidateEmptyTree(t *testing.T) {
	tr := NewTree()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate(empty): %v", err)
	}
	tr.SetSize(1)
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted nil root with nonzero size")
	}
}

func TestCountNodesMatchesSize(t *testing.T) {
	tr := MustCompact("r(a*4(b*2(c)),d*3)")
	if tr.CountNodes() != tr.Size() {
		t.Fatalf("CountNodes = %d, Size = %d", tr.CountNodes(), tr.Size())
	}
}

// propTreeFromSeed builds a small deterministic tree from an arbitrary seed
// for property tests.
func propTreeFromSeed(seed uint64) *Tree {
	tr := NewTree()
	labels := []string{"a", "b", "c", "d"}
	rng := seed
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	tr.Root = tr.NewNode("r")
	frontier := []*Node{tr.Root}
	budget := int(next(40)) + 1
	for budget > 0 && len(frontier) > 0 {
		p := frontier[next(uint64(len(frontier)))]
		c := tr.NewNode(labels[next(uint64(len(labels)))])
		p.Children = append(p.Children, c)
		frontier = append(frontier, c)
		budget--
	}
	return tr
}

func TestPropPrePostOrderVisitEveryNodeOnce(t *testing.T) {
	f := func(seed uint64) bool {
		tr := propTreeFromSeed(seed)
		pre := make(map[int]int)
		post := make(map[int]int)
		tr.PreOrder(func(n *Node) { pre[n.OID]++ })
		tr.PostOrder(func(n *Node) { post[n.OID]++ })
		if len(pre) != tr.Size() || len(post) != tr.Size() {
			return false
		}
		for _, c := range pre {
			if c != 1 {
				return false
			}
		}
		for _, c := range post {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSubtreeSizesSumAtRoot(t *testing.T) {
	f := func(seed uint64) bool {
		tr := propTreeFromSeed(seed)
		return SubtreeSize(tr.Root) == tr.Size() && tr.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
