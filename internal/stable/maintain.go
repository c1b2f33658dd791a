package stable

import (
	"fmt"
	"sort"

	"treesketch/internal/xmltree"
)

// Maintainer keeps a count-stable summary synchronized with its document
// under subtree insertions and deletions, without rebuilding from scratch:
// an update reclassifies only the affected subtree plus the ancestor path
// to the root (whose child signatures change). This extends the paper's
// static setting toward live collections; compressed TreeSketches are
// rebuilt from the maintained summary on demand (TSBuild is fast relative
// to re-summarizing the document).
//
// It starts from Build's class table and classifies through it, and keeps
// one element table keyed by OID that resolves each live element to its
// node, parent and class. OIDs are never reused, so the table is a map: a
// slice indexed by OID would grow with every insert ever made.
type Maintainer struct {
	doc     *xmltree.Tree
	classes *classTable
	elems   map[int]elem
	kids    []int // scratch: child classes of the element being classified
}

// elem is one live element in the Maintainer's element table.
type elem struct {
	node   *xmltree.Node
	parent *xmltree.Node // nil for the document root
	class  int
}

// NewMaintainer builds the count-stable summary of doc and the element
// table for incremental updates. The document must not be mutated except
// through the Maintainer.
func NewMaintainer(doc *xmltree.Tree) *Maintainer {
	s, classes := build(doc)
	m := &Maintainer{doc: doc, classes: classes, elems: make(map[int]elem, doc.Size())}
	if doc.Root == nil {
		return m
	}
	m.elems[doc.Root.OID] = elem{node: doc.Root, class: s.Root}
	doc.PreOrder(func(e *xmltree.Node) {
		for _, c := range e.Children {
			m.elems[c.OID] = elem{node: c, parent: e, class: s.ClassOf[c.OID]}
		}
	})
	return m
}

// Doc returns the maintained document.
func (m *Maintainer) Doc() *xmltree.Tree { return m.doc }

// NumClasses reports the number of live equivalence classes.
func (m *Maintainer) NumClasses() int { return len(m.classes.byKey) }

// Node returns the live element with the given OID, or nil when no element
// of the maintained document has it (never assigned, or deleted).
func (m *Maintainer) Node(oid int) *xmltree.Node { return m.elems[oid].node }

// Parent returns the parent element of n in the maintained document, or nil
// when n is the document root or not part of the document.
func (m *Maintainer) Parent(n *xmltree.Node) *xmltree.Node {
	if x, ok := m.member(n); ok {
		return x.parent
	}
	return nil
}

// member returns n's entry in the element table, reporting whether n is
// part of the maintained document: an element of another tree can carry a
// colliding OID, so the entry must hold n itself.
func (m *Maintainer) member(n *xmltree.Node) (elem, bool) {
	if n == nil {
		return elem{}, false
	}
	x, ok := m.elems[n.OID]
	return x, ok && x.node == n
}

// classify puts e, a child of parent whose children are all classified,
// into the class of its count-stable key and records it in the element
// table. The second result reports whether a new class had to be created
// for e's signature.
func (m *Maintainer) classify(e, parent *xmltree.Node) (int, bool) {
	m.kids = m.kids[:0]
	for _, c := range e.Children {
		m.kids = append(m.kids, m.elems[c.OID].class)
	}
	id, created := m.classes.add(m.doc, e.Label, m.kids)
	m.elems[e.OID] = elem{node: e, parent: parent, class: id}
	return id, created
}

// InsertSubtree clones proto (an independent tree) as a new child of
// parent and updates the summary: the new elements are classified
// bottom-up, then parent and its ancestors are reclassified. Returns the
// adopted root element.
func (m *Maintainer) InsertSubtree(parent *xmltree.Node, proto *xmltree.Tree) (*xmltree.Node, error) {
	if parent == nil || proto == nil || proto.Root == nil {
		return nil, fmt.Errorf("stable: InsertSubtree: nil parent or empty subtree")
	}
	if _, ok := m.member(parent); !ok {
		return nil, fmt.Errorf("stable: InsertSubtree: parent %d not part of the maintained document", parent.OID)
	}
	var adopt func(p, under *xmltree.Node) *xmltree.Node
	adopt = func(p, under *xmltree.Node) *xmltree.Node {
		n := m.doc.NewNode(p.Label)
		for _, c := range p.Children {
			n.Children = append(n.Children, adopt(c, n))
		}
		m.classify(n, under)
		return n
	}
	root := adopt(proto.Root, parent)
	parent.Children = append(parent.Children, root)
	m.reclassifyAncestors(parent)
	return root, nil
}

// DeleteSubtree detaches the subtree rooted at n from the document and
// updates the summary. The document root cannot be deleted.
func (m *Maintainer) DeleteSubtree(n *xmltree.Node) error {
	if n == nil {
		return fmt.Errorf("stable: DeleteSubtree: nil element")
	}
	x, ok := m.member(n)
	if !ok {
		return fmt.Errorf("stable: DeleteSubtree: element %d not part of the maintained document", n.OID)
	}
	parent := x.parent
	if parent == nil {
		return fmt.Errorf("stable: DeleteSubtree: cannot delete the document root")
	}
	idx := -1
	for i, c := range parent.Children {
		if c == n {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("stable: DeleteSubtree: element %d not under its recorded parent", n.OID)
	}
	parent.Children = append(parent.Children[:idx], parent.Children[idx+1:]...)

	removed := 0
	var drop func(e *xmltree.Node)
	drop = func(e *xmltree.Node) {
		for _, c := range e.Children {
			drop(c)
		}
		m.classes.remove(m.elems[e.OID].class)
		delete(m.elems, e.OID)
		removed++
	}
	drop(n)
	m.doc.SetSize(m.doc.Size() - removed)
	m.reclassifyAncestors(parent)
	return nil
}

// reclassifyAncestors walks from e to the root, moving each element to the
// class matching its updated child signature. The walk can stop early once
// an element's class is unchanged (then no ancestor signature changes
// either) — but only when the class genuinely survived: when cur was the
// sole member, remove frees its class ID and classify may recycle that
// same ID for the *changed* signature, so an ID match alone does not mean
// the signature (or its depth) is unchanged.
func (m *Maintainer) reclassifyAncestors(e *xmltree.Node) {
	for cur := e; cur != nil; {
		x := m.elems[cur.OID]
		m.classes.remove(x.class)
		if id, created := m.classify(cur, x.parent); id == x.class && !created {
			return
		}
		cur = x.parent
	}
}

// CanonicalSynopsis materializes the current summary with classes numbered
// by first appearance in a document post-order walk — exactly the numbering
// Build assigns. A maintained document therefore yields a synopsis
// bit-identical to rebuilding from scratch, which is what lets compacted
// sketches be fingerprint-compared against a rebuild oracle. ClassOf is
// sized to the document's OID space with -1 for OIDs of deleted elements
// (Build leaves untouched entries at 0, but never has dead OIDs).
func (m *Maintainer) CanonicalSynopsis() *Synopsis {
	s := &Synopsis{Root: -1}
	if m.doc.Root == nil {
		return s
	}
	remap := make([]int, len(m.classes.nodes))
	for i := range remap {
		remap[i] = -1
	}
	s.ClassOf = make([]int, m.doc.OIDSpace())
	for i := range s.ClassOf {
		s.ClassOf[i] = -1
	}
	m.doc.PostOrder(func(e *xmltree.Node) {
		id := m.elems[e.OID].class
		nid := remap[id]
		if nid < 0 {
			u := m.classes.nodes[id]
			nid = len(s.Nodes)
			remap[id] = nid
			v := &Node{
				ID:    nid,
				Label: u.Label,
				Count: u.Count,
				depth: u.depth,
				Edges: make([]Edge, len(u.Edges)),
			}
			// Children precede parents in post-order, so every child class
			// is already remapped.
			for i, ed := range u.Edges {
				v.Edges[i] = Edge{Child: remap[ed.Child], K: ed.K}
			}
			sort.Slice(v.Edges, func(a, b int) bool { return v.Edges[a].Child < v.Edges[b].Child })
			s.Nodes = append(s.Nodes, v)
		}
		s.ClassOf[e.OID] = nid
	})
	s.Root = s.ClassOf[m.doc.Root.OID]
	return s
}
