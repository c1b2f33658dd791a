package tier

import (
	"testing"

	"treesketch/internal/xmltree"
)

// testRNG is the same LCG the stable property tests use, so update scripts
// are reproducible from a single seed with no global random state.
type testRNG uint64

func (r *testRNG) next(n int) int {
	*r = *r*6364136223846793005 + 1442695040888963407
	return int((uint64(*r) >> 33) % uint64(n))
}

// protoCap bounds the size of subtrees the scripter clones for insertion.
const protoCap = 64

// liveNodes returns the current document elements in preorder.
func liveNodes(st *Stack) []*xmltree.Node {
	var out []*xmltree.Node
	st.Doc().PreOrder(func(n *xmltree.Node) { out = append(out, n) })
	return out
}

// randomOp applies one seeded insert (cloning a random existing subtree of
// bounded size under a random parent) or delete (random non-root element).
// Inserts are forced while the document is small so scripts cannot delete
// a document away.
func randomOp(t *testing.T, st *Stack, rng *testRNG) {
	t.Helper()
	els := liveNodes(st)
	insert := rng.next(2) == 0 || len(els) < 16
	if insert {
		src := els[rng.next(len(els))]
		for xmltree.SubtreeSize(src) > protoCap {
			src = src.Children[rng.next(len(src.Children))]
		}
		proto := xmltree.NewTree()
		proto.Root = proto.CopySubtree(src)
		parent := els[rng.next(len(els))]
		if _, err := st.Insert(parent.OID, proto); err != nil {
			t.Fatalf("insert under OID %d: %v", parent.OID, err)
		}
		return
	}
	victim := els[rng.next(len(els)-1)+1] // never the root
	if err := st.Delete(victim.OID); err != nil {
		t.Fatalf("delete OID %d: %v", victim.OID, err)
	}
}

// liveScript replays the shape of the live-mixed benchmark's update script:
// while it holds inserted subtrees, half the ops delete one of them;
// otherwise it copies the subtree of a random original element (descending
// to a random child until it has at most protoCap elements) under a random
// original element carrying the label of the copied subtree's parent. The
// document keeps its original structure, so the delta stays a small
// fraction of it however long the script runs.
type liveScript struct {
	rng     testRNG
	src     []*xmltree.Node // pristine original elements, preorder
	live    []*xmltree.Node // the same elements in the stack's document
	parent  []int           // preorder index of each element's parent, -1 at the root
	kids    [][]int
	size    []int
	byLabel map[string][]int
	held    []int // OIDs of inserted subtrees still in the document
}

// newLiveScript indexes pristine, an unmutated copy of st's document
// taken before any update.
func newLiveScript(st *Stack, pristine *xmltree.Tree, seed uint64) *liveScript {
	s := &liveScript{rng: testRNG(seed), byLabel: make(map[string][]int)}
	var walk func(n *xmltree.Node, parent int) int
	walk = func(n *xmltree.Node, parent int) int {
		id := len(s.src)
		s.src = append(s.src, n)
		s.parent = append(s.parent, parent)
		s.kids = append(s.kids, nil)
		s.size = append(s.size, 0)
		s.byLabel[n.Label] = append(s.byLabel[n.Label], id)
		if parent >= 0 {
			s.kids[parent] = append(s.kids[parent], id)
		}
		size := 1
		for _, c := range n.Children {
			size += walk(c, id)
		}
		s.size[id] = size
		return size
	}
	walk(pristine.Root, -1)
	s.live = liveNodes(st)
	return s
}

func (s *liveScript) step(t *testing.T, st *Stack) {
	t.Helper()
	if len(s.held) > 0 && s.rng.next(2) == 0 {
		j := s.rng.next(len(s.held))
		oid := s.held[j]
		s.held[j] = s.held[len(s.held)-1]
		s.held = s.held[:len(s.held)-1]
		if err := st.Delete(oid); err != nil {
			t.Fatalf("delete held OID %d: %v", oid, err)
		}
		return
	}
	i := s.rng.next(len(s.src))
	for s.size[i] > protoCap || s.parent[i] < 0 {
		i = s.kids[i][s.rng.next(len(s.kids[i]))]
	}
	peers := s.byLabel[s.src[s.parent[i]].Label]
	parent := s.live[peers[s.rng.next(len(peers))]]
	proto := xmltree.NewTree()
	proto.Root = proto.CopySubtree(s.src[i])
	oid, err := st.Insert(parent.OID, proto)
	if err != nil {
		t.Fatalf("insert under OID %d: %v", parent.OID, err)
	}
	s.held = append(s.held, oid)
}
