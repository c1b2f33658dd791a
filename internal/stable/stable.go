// Package stable implements the count-stable summary of an XML document
// (Section 3.2 and Figure 4 of the paper).
//
// A count-stable summary is a graph synopsis in which every pair of node
// partitions (u, v) is k-stable: each element in extent(u) has exactly k
// child elements in extent(v). By Lemma 3.1 the minimal count-stable
// equivalence relation is unique and the original document can be
// reconstructed from it without error (Expand). The count-stable summary is
// the lossless starting point that TSBuild compresses down to a space
// budget.
package stable

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"treesketch/internal/obs"
	"treesketch/internal/xmltree"
)

// Size model: the footprint charged per synopsis node and edge when
// measuring summaries against a space budget. A node stores a label
// reference and an element count; an edge stores a target reference and a
// child count.
const (
	NodeBytes = 12
	EdgeBytes = 8
)

// Edge is a k-stable synopsis edge: every element of the source partition
// has exactly K children in the Child partition.
type Edge struct {
	Child int // target node ID
	K     int // exact per-element child count; always >= 1
}

// Node is one equivalence class (element partition) of the count-stable
// relation.
type Node struct {
	ID    int
	Label string
	Count int    // |extent|: number of document elements in the class
	Edges []Edge // outgoing edges, sorted by Child

	depth int // longest downward path to a leaf class
}

// Depth returns the node's depth: 0 for a class of leaf elements, otherwise
// 1 + the maximum depth among child classes. Because classes group elements
// with identical sub-tree structure, this equals the depth (in the paper's
// Section 4.2 sense) of every element in the extent.
func (n *Node) Depth() int { return n.depth }

// Synopsis is a count-stable summary. Nodes are indexed by ID; the graph is
// a DAG with a single root class of count 1.
type Synopsis struct {
	Nodes []*Node
	Root  int

	// ClassOf maps a document element OID to the ID of its equivalence
	// class. It is populated by Build and CanonicalSynopsis and used by
	// NewMaintainer and tests; it is nil for synopses produced otherwise.
	ClassOf []int
}

// Build constructs the unique minimal count-stable summary of t using the
// BuildStable algorithm (Figure 4): a post-order traversal assigns each
// element to a class identified by its label plus the multiset of
// (child class, count) pairs; classes are deduplicated through a hash table.
// Runs in O(|T|) time (amortized).
func Build(t *xmltree.Tree) *Synopsis {
	s, _ := build(t)
	return s
}

// build is Build that also returns the class table it filled, which
// NewMaintainer keeps current from then on.
func build(t *xmltree.Tree) (*Synopsis, *classTable) {
	c := &classTable{byKey: make(map[string]int)}
	if t.Root == nil {
		return &Synopsis{Root: -1}, c
	}
	span := obs.StartSpan("stable.build")
	s := &Synopsis{ClassOf: make([]int, t.OIDSpace())}
	var kids []int
	t.PostOrder(func(e *xmltree.Node) {
		// Children are already classified by virtue of post-order.
		kids = kids[:0]
		for _, ch := range e.Children {
			kids = append(kids, s.ClassOf[ch.OID])
		}
		s.ClassOf[e.OID], _ = c.add(t, e.Label, kids)
	})
	s.Nodes = c.nodes
	s.Root = s.ClassOf[t.Root.OID]
	span.End()
	reg := obs.Default()
	reg.Counter("stable.build.runs").Inc()
	reg.Counter("stable.build.elements").Add(int64(t.Size()))
	reg.Histogram("stable.build.classes").Observe(float64(len(s.Nodes)))
	return s, c
}

// classTable assigns elements to count-stable classes by key. Build runs it
// over a whole document; a Maintainer keeps the table Build filled and
// re-runs it on the elements an update touches.
type classTable struct {
	nodes []*Node        // by class ID; a Maintainer's holds nils for emptied classes
	byKey map[string]int // class key -> class ID, for live classes only
	free  []int          // emptied class IDs, reused before new ones

	pairs []Edge // scratch: the signature being keyed
	key   []byte // scratch: the rendered key
}

// add counts one element of t, with the given label and children in
// classes kids (sorted in place), into the class its key names, creating
// the class first when the key is new. It reports the class ID and whether
// the class was created.
func (c *classTable) add(t *xmltree.Tree, label string, kids []int) (int, bool) {
	slices.Sort(kids)
	c.pairs = c.pairs[:0]
	for i, id := range kids {
		if i > 0 && kids[i-1] == id {
			c.pairs[len(c.pairs)-1].K++
		} else {
			c.pairs = append(c.pairs, Edge{Child: id, K: 1})
		}
	}
	c.key = appendKey(c.key[:0], label, c.pairs)
	id, ok := c.byKey[string(c.key)]
	if !ok {
		u := &Node{Label: t.Intern(label), Edges: append(make([]Edge, 0, len(c.pairs)), c.pairs...)}
		for _, p := range c.pairs {
			u.depth = max(u.depth, c.nodes[p.Child].depth+1)
		}
		if n := len(c.free); n > 0 {
			id = c.free[n-1]
			c.free = c.free[:n-1]
			c.nodes[id] = u
		} else {
			id = len(c.nodes)
			c.nodes = append(c.nodes, u)
		}
		u.ID = id
		c.byKey[string(c.key)] = id
	}
	c.nodes[id].Count++
	return id, !ok
}

// remove takes one element out of class id, dropping the class when it
// empties.
func (c *classTable) remove(id int) {
	u := c.nodes[id]
	u.Count--
	if u.Count == 0 {
		c.key = appendKey(c.key[:0], u.Label, u.Edges)
		delete(c.byKey, string(c.key))
		c.nodes[id] = nil
		c.free = append(c.free, id)
	}
}

// appendKey renders a class key, the label followed by the class's
// (child class, count) pairs in child order, onto buf.
func appendKey(buf []byte, label string, pairs []Edge) []byte {
	buf = append(buf, label...)
	for _, p := range pairs {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(p.Child), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(p.K), 10)
	}
	return buf
}

// NumNodes reports the number of classes in the synopsis.
func (s *Synopsis) NumNodes() int { return len(s.Nodes) }

// NumEdges reports the total number of synopsis edges.
func (s *Synopsis) NumEdges() int {
	n := 0
	for _, u := range s.Nodes {
		n += len(u.Edges)
	}
	return n
}

// SizeBytes reports the storage footprint of the synopsis under the package
// size model.
func (s *Synopsis) SizeBytes() int {
	return s.NumNodes()*NodeBytes + s.NumEdges()*EdgeBytes
}

// Height returns the maximum node depth (the depth of the root class), or
// -1 for an empty synopsis.
func (s *Synopsis) Height() int {
	if s.Root < 0 {
		return -1
	}
	return s.Nodes[s.Root].depth
}

// TotalElements reports the number of document elements summarized, i.e. the
// sum of class counts.
func (s *Synopsis) TotalElements() int {
	n := 0
	for _, u := range s.Nodes {
		n += u.Count
	}
	return n
}

// Parents returns, for every node ID, the IDs of nodes with an edge into it.
func (s *Synopsis) Parents() [][]int {
	parents := make([][]int, len(s.Nodes))
	for _, u := range s.Nodes {
		for _, e := range u.Edges {
			parents[e.Child] = append(parents[e.Child], u.ID)
		}
	}
	return parents
}

// Expand reconstructs an XML document tree from the synopsis (the Expand
// function of Lemma 3.1). The result is isomorphic to the original document
// up to sibling order: each element of class u receives exactly e.K children
// of class e.Child for every outgoing edge. Expand fails if the root class
// count is not 1 or if the synopsis contains a cycle.
func (s *Synopsis) Expand() (*xmltree.Tree, error) {
	if s.Root < 0 {
		return xmltree.NewTree(), nil
	}
	root := s.Nodes[s.Root]
	if root.Count != 1 {
		return nil, fmt.Errorf("stable: root class has count %d, want 1", root.Count)
	}
	if err := s.checkAcyclic(); err != nil {
		return nil, err
	}
	t := xmltree.NewTree()
	var build func(id int) *xmltree.Node
	build = func(id int) *xmltree.Node {
		u := s.Nodes[id]
		n := t.NewNode(u.Label)
		for _, e := range u.Edges {
			for i := 0; i < e.K; i++ {
				n.Children = append(n.Children, build(e.Child))
			}
		}
		return n
	}
	t.Root = build(s.Root)
	return t, nil
}

func (s *Synopsis) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make([]int8, len(s.Nodes))
	var visit func(id int) error
	visit = func(id int) error {
		switch state[id] {
		case gray:
			return fmt.Errorf("stable: synopsis contains a cycle through node %d (%s)", id, s.Nodes[id].Label)
		case black:
			return nil
		}
		state[id] = gray
		for _, e := range s.Nodes[id].Edges {
			if err := visit(e.Child); err != nil {
				return err
			}
		}
		state[id] = black
		return nil
	}
	for id := range s.Nodes {
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}

// Verify checks that the synopsis is a valid count-stable summary of t:
// every element is assigned a class with a matching label, and for every
// class pair (u, v) each element of u has exactly k(u,v) children in v.
// It requires ClassOf to be populated (i.e. a synopsis from Build).
func (s *Synopsis) Verify(t *xmltree.Tree) error {
	if s.ClassOf == nil {
		return fmt.Errorf("stable: Verify requires ClassOf")
	}
	if len(s.ClassOf) < t.OIDSpace() {
		return fmt.Errorf("stable: ClassOf covers %d OIDs, document needs %d", len(s.ClassOf), t.OIDSpace())
	}
	counts := make([]int, len(s.Nodes))
	var err error
	t.PreOrder(func(e *xmltree.Node) {
		if err != nil {
			return
		}
		id := s.ClassOf[e.OID]
		if id < 0 || id >= len(s.Nodes) {
			err = fmt.Errorf("stable: element %d has out-of-range class %d", e.OID, id)
			return
		}
		u := s.Nodes[id]
		counts[id]++
		if u.Label != e.Label {
			err = fmt.Errorf("stable: element %d label %q in class labeled %q", e.OID, e.Label, u.Label)
			return
		}
		got := make(map[int]int)
		for _, c := range e.Children {
			got[s.ClassOf[c.OID]]++
		}
		if len(got) != len(u.Edges) {
			err = fmt.Errorf("stable: element %d has children in %d classes, class %d has %d edges", e.OID, len(got), id, len(u.Edges))
			return
		}
		for _, edge := range u.Edges {
			if got[edge.Child] != edge.K {
				err = fmt.Errorf("stable: element %d has %d children in class %d, edge says %d", e.OID, got[edge.Child], edge.Child, edge.K)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	for id, u := range s.Nodes {
		if counts[id] != u.Count {
			return fmt.Errorf("stable: class %d count %d, but %d elements assigned", id, u.Count, counts[id])
		}
	}
	return nil
}

// EdgeK returns the stable child count from node u to node v, or 0 when no
// edge exists (the k=0 case of Definition 3.1).
func (s *Synopsis) EdgeK(u, v int) int {
	edges := s.Nodes[u].Edges
	i := sort.Search(len(edges), func(i int) bool { return edges[i].Child >= v })
	if i < len(edges) && edges[i].Child == v {
		return edges[i].K
	}
	return 0
}
