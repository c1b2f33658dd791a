package stable

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"treesketch/internal/xmltree"
)

// sameSummary checks that two synopses describe the same count-stable
// relation: identical multisets of (canonical class signature, count).
func sameSummary(t *testing.T, got, want *Synopsis) bool {
	t.Helper()
	canonical := func(s *Synopsis) map[string]int {
		// Canonical signature per class via iterative refinement over the
		// class DAG: render each class as label(children...) recursively.
		memo := make(map[int]string)
		var render func(id int) string
		render = func(id int) string {
			if c, ok := memo[id]; ok {
				return c
			}
			u := s.Nodes[id]
			parts := make([]string, 0, len(u.Edges))
			for _, e := range u.Edges {
				parts = append(parts, render(e.Child)+"*"+itoa(e.K))
			}
			// Class IDs are assignment-order-dependent; sorting the child
			// renderings makes the form canonical across synopses.
			sort.Strings(parts)
			out := u.Label + "(" + strings.Join(parts, ";") + ")"
			memo[id] = out
			return out
		}
		m := make(map[string]int)
		for _, u := range s.Nodes {
			m[render(u.ID)] += u.Count
		}
		return m
	}
	a, b := canonical(got), canonical(want)
	if len(a) != len(b) {
		t.Logf("class counts differ: %d vs %d", len(a), len(b))
		return false
	}
	for k, v := range a {
		if b[k] != v {
			t.Logf("class %q: count %d vs %d", k, v, b[k])
			return false
		}
	}
	return true
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

// identicalSynopsis checks bit-level equality of two synopses: same root,
// same node numbering, and per-node identical label, count, depth, and edge
// lists. This is strictly stronger than sameSummary — it is what compaction
// relies on when fingerprint-comparing a maintained document against a
// from-scratch rebuild.
func identicalSynopsis(t *testing.T, got, want *Synopsis) bool {
	t.Helper()
	if got.Root != want.Root || len(got.Nodes) != len(want.Nodes) {
		t.Logf("root %d vs %d, nodes %d vs %d", got.Root, want.Root, len(got.Nodes), len(want.Nodes))
		return false
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.Label != w.Label || g.Count != w.Count || g.Depth() != w.Depth() || len(g.Edges) != len(w.Edges) {
			t.Logf("node %d: got {%s count=%d depth=%d edges=%d}, want {%s count=%d depth=%d edges=%d}",
				i, g.Label, g.Count, g.Depth(), len(g.Edges), w.Label, w.Count, w.Depth(), len(w.Edges))
			return false
		}
		for j := range g.Edges {
			if g.Edges[j] != w.Edges[j] {
				t.Logf("node %d edge %d: %+v vs %+v", i, j, g.Edges[j], w.Edges[j])
				return false
			}
		}
	}
	return true
}

func TestMaintainerMatchesBuildInitially(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b,b),a(b),c)")
	m := NewMaintainer(doc)
	if !sameSummary(t, m.CanonicalSynopsis(), Build(doc)) {
		t.Fatal("initial maintained synopsis differs from Build")
	}
}

func TestMaintainerInsert(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b),a(b))")
	m := NewMaintainer(doc)

	// Insert a new a(b,b) record under the root.
	_, err := m.InsertSubtree(doc.Root, xmltree.MustCompact("a(b,b)"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() != 5+3 {
		t.Fatalf("doc size %d, want 8", doc.Size())
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sameSummary(t, m.CanonicalSynopsis(), Build(doc)) {
		t.Fatal("maintained synopsis differs from rebuild after insert")
	}
}

func TestMaintainerInsertCreatesAndSharesClasses(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b))")
	m := NewMaintainer(doc)
	// Identical record: classes shared, counts bumped.
	m.InsertSubtree(doc.Root, xmltree.MustCompact("a(b)"))
	s := m.CanonicalSynopsis()
	byLabel := map[string]*Node{}
	for _, n := range s.Nodes {
		byLabel[n.Label] = n
	}
	if byLabel["a"].Count != 2 || byLabel["b"].Count != 2 {
		t.Fatalf("counts a=%d b=%d, want 2/2", byLabel["a"].Count, byLabel["b"].Count)
	}
	if s.NumNodes() != 3 {
		t.Fatalf("classes = %d, want 3", s.NumNodes())
	}
}

func TestMaintainerDelete(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b,b),a(b),c)")
	m := NewMaintainer(doc)
	// Delete the first a (with two b's).
	if err := m.DeleteSubtree(doc.Root.Children[0]); err != nil {
		t.Fatal(err)
	}
	if doc.Size() != 4 {
		t.Fatalf("doc size %d, want 4", doc.Size())
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sameSummary(t, m.CanonicalSynopsis(), Build(doc)) {
		t.Fatal("maintained synopsis differs from rebuild after delete")
	}
}

func TestMaintainerDeleteRootRejected(t *testing.T) {
	doc := xmltree.MustCompact("r(a)")
	m := NewMaintainer(doc)
	if err := m.DeleteSubtree(doc.Root); err == nil {
		t.Fatal("deleted the document root")
	}
}

func TestMaintainerInsertValidation(t *testing.T) {
	doc := xmltree.MustCompact("r(a)")
	m := NewMaintainer(doc)
	if _, err := m.InsertSubtree(nil, xmltree.MustCompact("x")); err == nil {
		t.Fatal("accepted nil parent")
	}
	if _, err := m.InsertSubtree(doc.Root, xmltree.NewTree()); err == nil {
		t.Fatal("accepted empty subtree")
	}
	foreign := xmltree.MustCompact("q(w)")
	if _, err := m.InsertSubtree(foreign.Root, xmltree.MustCompact("x")); err == nil {
		t.Fatal("accepted foreign parent")
	}
}

func TestMaintainerDeleteDetachedRejected(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b))")
	m := NewMaintainer(doc)
	b := doc.Root.Children[0].Children[0]
	if err := m.DeleteSubtree(b); err != nil {
		t.Fatal(err)
	}
	// Deleting it again must fail cleanly.
	if err := m.DeleteSubtree(b); err == nil {
		t.Fatal("double delete accepted")
	}
	// So must an element that is not the document's, even with the OID
	// and label of a live one.
	a := doc.Root.Children[0]
	alien := &xmltree.Node{OID: a.OID, Label: a.Label}
	if err := m.DeleteSubtree(alien); err == nil {
		t.Fatal("deleted a foreign element by its colliding OID")
	}
	if m.Parent(alien) != nil {
		t.Fatal("Parent resolved a foreign element by its colliding OID")
	}
	if got := doc.Compact(); got != "r(a)" || m.NumClasses() != 2 {
		t.Fatalf("refused deletes changed the document or summary: %s, %d classes", got, m.NumClasses())
	}
}

func TestMaintainerClassIDRecycling(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b))")
	m := NewMaintainer(doc)
	before := m.NumClasses()
	// Insert and delete a unique structure repeatedly; class count returns
	// to the baseline each time and internal state stays consistent.
	for i := 0; i < 10; i++ {
		n, err := m.InsertSubtree(doc.Root, xmltree.MustCompact("z(w,w,w)"))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.DeleteSubtree(n); err != nil {
			t.Fatal(err)
		}
		if got := m.NumClasses(); got != before {
			t.Fatalf("iteration %d: classes %d, want %d", i, got, before)
		}
	}
	if !sameSummary(t, m.CanonicalSynopsis(), Build(doc)) {
		t.Fatal("state corrupted by insert/delete cycles")
	}
}

func TestMaintainerSynopsisUsableDownstream(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b,b),a(b))")
	m := NewMaintainer(doc)
	m.InsertSubtree(doc.Root, xmltree.MustCompact("a(b,b,b)"))
	s := m.CanonicalSynopsis()
	if err := s.Verify(doc); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	back, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != doc.Size() {
		t.Fatalf("Expand size %d, want %d", back.Size(), doc.Size())
	}
}

// The next two tests pin one latent failure shape from two directions: when
// a reclassified ancestor was the sole member of its class, removing it frees
// the class ID and classify immediately recycles the same ID for the
// *changed* signature. An ID-equality early stop in reclassifyAncestors then
// leaves every higher ancestor with a stale depth, so the maintained summary
// diverges from a rebuild (depth feeds TSBuild's pool ordering and the
// sketch fingerprint).

func TestMaintainerInsertUnderJustInsertedSubtree(t *testing.T) {
	doc := xmltree.MustCompact("r(x(b))")
	m := NewMaintainer(doc)
	x := doc.Root.Children[0]
	s1, err := m.InsertSubtree(x, xmltree.MustCompact("s(t)"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Parent(s1) != x {
		t.Fatal("Parent disagrees with the insertion point")
	}
	// Insert below a node that was itself just inserted: every ancestor up
	// to the root sits in a count-1 class, the recycling-prone shape.
	if _, err := m.InsertSubtree(s1.Children[0], xmltree.MustCompact("u(v)")); err != nil {
		t.Fatal(err)
	}
	canon := m.CanonicalSynopsis()
	if err := canon.Verify(doc); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !identicalSynopsis(t, canon, Build(doc)) {
		t.Fatal("canonical synopsis diverged from rebuild (stale ancestor depths)")
	}
}

func TestMaintainerDeleteThenReinsertSameShape(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b(c)))")
	m := NewMaintainer(doc)
	a := doc.Root.Children[0]
	if err := m.DeleteSubtree(a.Children[0]); err != nil {
		t.Fatal(err)
	}
	// The interesting state is *between* delete and reinsert: ancestor
	// depths must shrink with the deleted chain.
	if !identicalSynopsis(t, m.CanonicalSynopsis(), Build(doc)) {
		t.Fatal("canonical synopsis diverged from rebuild after delete")
	}
	if _, err := m.InsertSubtree(a, xmltree.MustCompact("b(c)")); err != nil {
		t.Fatal(err)
	}
	if !identicalSynopsis(t, m.CanonicalSynopsis(), Build(doc)) {
		t.Fatal("canonical synopsis diverged from rebuild after reinserting the same shape")
	}
}

// checkElementTable checks the Maintainer's element table against its
// document: every element reachable from the root resolves to itself
// through Node, and Parent agrees with the tree; every deleted OID
// resolves to nil.
func checkElementTable(m *Maintainer, deleted []int) error {
	var err error
	var walk func(n, parent *xmltree.Node)
	walk = func(n, parent *xmltree.Node) {
		if m.Node(n.OID) != n && err == nil {
			err = fmt.Errorf("Node(%d) does not resolve to the document's element %q", n.OID, n.Label)
		}
		if m.Parent(n) != parent && err == nil {
			err = fmt.Errorf("Parent(%d) disagrees with the document", n.OID)
		}
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	walk(m.Doc().Root, nil)
	for _, oid := range deleted {
		if got := m.Node(oid); got != nil && err == nil {
			err = fmt.Errorf("deleted OID %d resolves to element %q", oid, got.Label)
		}
	}
	return err
}

// TestPropMaintainerEquivalentToRebuild drives random edit scripts and
// checks after every step that the maintained synopsis is bit-identical to
// a from-scratch Build and that the element table matches the document.
func TestPropMaintainerEquivalentToRebuild(t *testing.T) {
	protos := []string{
		"a(b)", "a(b,b)", "a(c)", "x(y(z))", "x(y)", "c", "a(b(c),b)",
	}
	f := func(seed uint64) bool {
		doc := randomTree(seed)
		m := NewMaintainer(doc)
		rng := seed
		next := func(n uint64) uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return (rng >> 33) % n
		}
		// Collect current elements for random targeting.
		elements := func() []*xmltree.Node {
			var out []*xmltree.Node
			doc.PreOrder(func(n *xmltree.Node) { out = append(out, n) })
			return out
		}
		var deleted []int // OIDs of every element deleted so far
		for step := 0; step < 8; step++ {
			els := elements()
			if next(2) == 0 {
				parent := els[next(uint64(len(els)))]
				if _, err := m.InsertSubtree(parent, xmltree.MustCompact(protos[next(uint64(len(protos)))])); err != nil {
					t.Logf("seed %d step %d: insert: %v", seed, step, err)
					return false
				}
			} else if len(els) > 1 {
				victim := els[next(uint64(len(els)-1))+1] // never the root
				gone := &xmltree.Tree{Root: victim}
				gone.PreOrder(func(n *xmltree.Node) { deleted = append(deleted, n.OID) })
				if err := m.DeleteSubtree(victim); err != nil {
					t.Logf("seed %d step %d: delete: %v", seed, step, err)
					return false
				}
			}
			if err := doc.Validate(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			if err := checkElementTable(m, deleted); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			if !identicalSynopsis(t, m.CanonicalSynopsis(), Build(doc)) {
				t.Logf("seed %d step %d: canonical synopsis not bit-identical to rebuild", seed, step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
