// Package xmltree defines the node-labeled tree model for XML documents
// used throughout the TreeSketch framework.
//
// Following the paper's data model (Section 2), an XML document is a large
// node-labeled tree T(V, E): each node corresponds to an element with a
// unique object identifier (OID) and a label drawn from an alphabet of
// string literals; edges capture element containment. Values (text content)
// are outside the scope of the structural summarization problem and are
// dropped at parse time.
package xmltree

import (
	"fmt"
	"sort"
)

// Node is a single element node in an XML document tree.
type Node struct {
	// OID is the unique object identifier of the element. BuildTree and the
	// parser assign OIDs in document (pre-)order starting at 0 for the root.
	OID int
	// Label is the element tag. Labels are interned per Tree, so comparing
	// labels of nodes from the same tree is cheap.
	Label string
	// Children holds the ordered sub-elements.
	Children []*Node
}

// Tree is a parsed XML document: a rooted, ordered, node-labeled tree.
type Tree struct {
	Root *Node

	size    int
	nextOID int
	intern  map[string]string
}

// NewTree returns an empty tree ready to have nodes added via NewNode.
func NewTree() *Tree {
	return &Tree{intern: make(map[string]string)}
}

// Intern returns the canonical instance of label for this tree, interning it
// on first use. All construction paths route labels through Intern so that
// label comparisons between nodes of the same tree hit the pointer-equality
// fast path.
func (t *Tree) Intern(label string) string {
	if t.intern == nil {
		t.intern = make(map[string]string)
	}
	if s, ok := t.intern[label]; ok {
		return s
	}
	t.intern[label] = label
	return label
}

// NewNode allocates a node with the next OID and the given (interned) label.
// The caller is responsible for linking it into the tree. OIDs are never
// reused, even after deletions, so they stay unique for the lifetime of
// the tree.
func (t *Tree) NewNode(label string) *Node {
	n := &Node{OID: t.nextOID, Label: t.Intern(label)}
	t.nextOID++
	t.size++
	return n
}

// Size reports the number of element nodes in the tree.
func (t *Tree) Size() int { return t.size }

// OIDSpace reports an exclusive upper bound on element OIDs: arrays
// indexed by OID must have at least this length. For documents never
// edited it equals Size; after deletions it can be larger.
func (t *Tree) OIDSpace() int { return t.nextOID }

// SetSize overrides the recorded node count. It is used by builders that
// assemble trees from externally allocated nodes and by deletion-style
// editors; OID allocation is unaffected.
func (t *Tree) SetSize(n int) { t.size = n }

// Labels returns the sorted set of distinct labels appearing in the tree.
func (t *Tree) Labels() []string {
	seen := make(map[string]bool)
	t.PreOrder(func(n *Node) { seen[n.Label] = true })
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// PreOrder visits every node in document order (parents before children).
func (t *Tree) PreOrder(visit func(*Node)) {
	if t.Root == nil {
		return
	}
	stack := []*Node{t.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(n)
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
}

// PostOrder visits every node with all children visited before their parent.
// BuildStable relies on this ordering to have child equivalence classes
// available when an element is processed.
func (t *Tree) PostOrder(visit func(*Node)) {
	if t.Root == nil {
		return
	}
	// Iterative post-order: stack of (node, childIndex) frames.
	type frame struct {
		n *Node
		i int
	}
	stack := []frame{{t.Root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.n.Children) {
			child := f.n.Children[f.i]
			f.i++
			stack = append(stack, frame{child, 0})
			continue
		}
		visit(f.n)
		stack = stack[:len(stack)-1]
	}
}

// Height returns the number of edges on the longest root-to-leaf path.
// The empty tree has height -1 and a single root has height 0.
func (t *Tree) Height() int {
	if t.Root == nil {
		return -1
	}
	var rec func(n *Node) int
	rec = func(n *Node) int {
		h := -1
		for _, c := range n.Children {
			if ch := rec(c); ch > h {
				h = ch
			}
		}
		return h + 1
	}
	return rec(t.Root)
}

// CountNodes walks the tree and counts nodes; it is the slow, authoritative
// version of Size used by tests and by builders that bypass NewNode.
func (t *Tree) CountNodes() int {
	n := 0
	t.PreOrder(func(*Node) { n++ })
	return n
}

// SubtreeSize returns the number of nodes in the subtree rooted at n
// (including n itself).
func SubtreeSize(n *Node) int {
	if n == nil {
		return 0
	}
	size := 1
	for _, c := range n.Children {
		size += SubtreeSize(c)
	}
	return size
}

// CopySubtree deep-copies the subtree rooted at src, which may belong to any
// tree, into t with fresh OIDs and returns the copy's root, not yet attached
// to anything.
func (t *Tree) CopySubtree(src *Node) *Node {
	n := t.NewNode(src.Label)
	for _, c := range src.Children {
		n.Children = append(n.Children, t.CopySubtree(c))
	}
	return n
}

// Depth returns the "depth" of a node as defined by the paper's CreatePool
// heuristic (Section 4.2): 0 for a leaf, otherwise 1 + the maximum depth of
// its children. Intuitively, the longest path from the node down to a leaf.
func Depth(n *Node) int {
	if len(n.Children) == 0 {
		return 0
	}
	d := 0
	for _, c := range n.Children {
		if cd := Depth(c); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Validate checks structural invariants: a single root, unique OIDs, no
// cycles (every node reachable exactly once), and an accurate size counter.
// It is used by tests and by tools loading untrusted documents.
func (t *Tree) Validate() error {
	if t.Root == nil {
		if t.size != 0 {
			return fmt.Errorf("xmltree: nil root but size %d", t.size)
		}
		return nil
	}
	seen := make(map[int]bool)
	count := 0
	var err error
	t.PreOrder(func(n *Node) {
		if err != nil {
			return
		}
		if seen[n.OID] {
			err = fmt.Errorf("xmltree: duplicate OID %d (label %q)", n.OID, n.Label)
			return
		}
		seen[n.OID] = true
		count++
	})
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("xmltree: size counter %d but %d reachable nodes", t.size, count)
	}
	return nil
}
