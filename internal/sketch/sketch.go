// Package sketch defines the TreeSketch synopsis data structure
// (Definition 3.2 of the paper): a node- and edge-labeled graph synopsis
// where each node stores an element count and each edge stores the average
// number of children, plus the per-edge sufficient statistics (sum and
// sum-of-squares of child counts) that make the clustering squared error
// (Section 3.2) computable without touching the base data.
package sketch

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"treesketch/internal/stable"
)

// Size model shared with the count-stable summary, so budgets are
// comparable across synopsis kinds.
const (
	NodeBytes = stable.NodeBytes
	EdgeBytes = stable.EdgeBytes
)

// Edge is a TreeSketch synopsis edge u -> Child. Avg is count(u, Child) in
// the paper's notation: the average number of children in extent(Child) per
// element of extent(u). Sum and SumSq are the exact first and second moments
// of the per-element child counts; they are the "sufficient statistics" of
// Section 4.2 from which the squared error is derived. MinK is the exact
// minimum per-element child count over the extent: MinK >= 1 certifies that
// every element has a child along the edge, which the evaluator uses for
// exact existential predicates (a strictly sharper signal than any moment
// bound).
type Edge struct {
	Child int
	Avg   float64
	Sum   float64
	SumSq float64
	MinK  float64
}

// Node is one element cluster of the TreeSketch.
type Node struct {
	ID    int
	Label string
	Count int // |extent|
	Edges []Edge

	// Members lists the count-stable classes clustered into this node, in
	// ascending order. Populated by construction (FromStable and merges);
	// nil in synopses that were not derived from a stable summary, such as
	// query-result sketches.
	Members []int
	// Depth is the longest downward path to a leaf, measured on document
	// elements (i.e. the max stable-class depth among Members). Used by the
	// CreatePool bottom-up heuristic.
	Depth int
}

// SqErr returns the squared clustering error contributed by this node:
// sum over outgoing edges of Sum of (c_i(e) - avg)^2 over extent elements,
// which equals SumSq - Sum^2/Count per edge.
func (n *Node) SqErr() float64 {
	if n.Count == 0 {
		return 0
	}
	var sq float64
	for _, e := range n.Edges {
		sq += e.SumSq - e.Sum*e.Sum/float64(n.Count)
	}
	// Guard against tiny negative values from floating-point cancellation.
	if sq < 0 && sq > -1e-6 {
		sq = 0
	}
	return sq
}

// EdgeTo returns the edge from n to child and true, or a zero Edge and
// false when absent.
func (n *Node) EdgeTo(child int) (Edge, bool) {
	i := sort.Search(len(n.Edges), func(i int) bool { return n.Edges[i].Child >= child })
	if i < len(n.Edges) && n.Edges[i].Child == child {
		return n.Edges[i], true
	}
	return Edge{}, false
}

// Sketch is a TreeSketch synopsis. Nodes is indexed by node ID; entries may
// be nil while a construction algorithm is merging (tombstones). Compact
// renumbers the survivors.
//
// All methods are read-only and safe for concurrent use as long as no
// goroutine mutates the synopsis; construction algorithms that evaluate
// candidates in parallel (tsbuild) freeze the structure during each
// evaluation batch and confine mutation to a single goroutine between
// batches. The one piece of internal synchronization is the label set
// behind HasLabel, built once on first use and freed with the sketch.
type Sketch struct {
	Nodes []*Node
	Root  int

	labelsOnce sync.Once
	labels     map[string]struct{}
}

// HasLabel reports whether some live node carries label. The label set is
// computed on the first call and kept for the sketch's lifetime, so nodes
// must not gain new labels after the first call.
func (sk *Sketch) HasLabel(label string) bool {
	sk.labelsOnce.Do(func() {
		sk.labels = make(map[string]struct{})
		for _, u := range sk.Nodes {
			if u != nil {
				sk.labels[u.Label] = struct{}{}
			}
		}
	})
	_, ok := sk.labels[label]
	return ok
}

// FromStable converts a count-stable summary into the equivalent (zero
// squared error) TreeSketch: one cluster per stable class, each edge exactly
// k-stable so Avg = k, Sum = k*Count, SumSq = k^2*Count.
func FromStable(s *stable.Synopsis) *Sketch {
	sk := &Sketch{Root: s.Root, Nodes: make([]*Node, len(s.Nodes))}
	for i, u := range s.Nodes {
		n := &Node{
			ID:      i,
			Label:   u.Label,
			Count:   u.Count,
			Members: []int{i},
			Depth:   u.Depth(),
			Edges:   make([]Edge, len(u.Edges)),
		}
		for j, e := range u.Edges {
			k := float64(e.K)
			c := float64(u.Count)
			n.Edges[j] = Edge{Child: e.Child, Avg: k, Sum: k * c, SumSq: k * k * c, MinK: k}
		}
		sk.Nodes[i] = n
	}
	return sk
}

// NumNodes reports the number of live (non-tombstone) nodes.
func (sk *Sketch) NumNodes() int {
	n := 0
	for _, u := range sk.Nodes {
		if u != nil {
			n++
		}
	}
	return n
}

// NumEdges reports the number of live edges.
func (sk *Sketch) NumEdges() int {
	n := 0
	for _, u := range sk.Nodes {
		if u != nil {
			n += len(u.Edges)
		}
	}
	return n
}

// SizeBytes reports the storage footprint under the package size model.
func (sk *Sketch) SizeBytes() int {
	return sk.NumNodes()*NodeBytes + sk.NumEdges()*EdgeBytes
}

// SqErr returns the total squared error sq(TS): the sum over all clusters.
// A sketch equivalent to a count-stable summary has zero squared error.
func (sk *Sketch) SqErr() float64 {
	var sq float64
	for _, u := range sk.Nodes {
		if u != nil {
			sq += u.SqErr()
		}
	}
	return sq
}

// Height returns the maximum node depth, or -1 when empty.
func (sk *Sketch) Height() int {
	h := -1
	for _, u := range sk.Nodes {
		if u != nil && u.Depth > h {
			h = u.Depth
		}
	}
	return h
}

// Parents returns, for every node ID, the IDs of live nodes with an edge
// into it.
func (sk *Sketch) Parents() [][]int {
	parents := make([][]int, len(sk.Nodes))
	for _, u := range sk.Nodes {
		if u == nil {
			continue
		}
		for _, e := range u.Edges {
			parents[e.Child] = append(parents[e.Child], u.ID)
		}
	}
	return parents
}

// Compact renumbers live nodes into a dense 0..n-1 ID space, dropping
// tombstones, and returns the new sketch. The receiver is unchanged.
func (sk *Sketch) Compact() *Sketch {
	remap := make(map[int]int, len(sk.Nodes))
	out := &Sketch{}
	for _, u := range sk.Nodes {
		if u == nil {
			continue
		}
		remap[u.ID] = len(out.Nodes)
		out.Nodes = append(out.Nodes, nil)
	}
	for _, u := range sk.Nodes {
		if u == nil {
			continue
		}
		v := &Node{
			ID:      remap[u.ID],
			Label:   u.Label,
			Count:   u.Count,
			Depth:   u.Depth,
			Members: append([]int(nil), u.Members...),
			Edges:   make([]Edge, len(u.Edges)),
		}
		for j, e := range u.Edges {
			v.Edges[j] = Edge{Child: remap[e.Child], Avg: e.Avg, Sum: e.Sum, SumSq: e.SumSq, MinK: e.MinK}
		}
		sort.Slice(v.Edges, func(a, b int) bool { return v.Edges[a].Child < v.Edges[b].Child })
		out.Nodes[v.ID] = v
	}
	out.Root = remap[sk.Root]
	return out
}

// Check validates internal consistency: every live node's ID is its index,
// live edges point at live nodes, counts are positive, edge statistics are
// finite and non-negative, edge Avg equals Sum/Count, an edge carries no
// more children than its child's extent holds, edges are sorted and
// deduplicated, the root is live, and the graph is acyclic. It returns the
// first violation found.
func (sk *Sketch) Check() error {
	if sk.Root < 0 || sk.Root >= len(sk.Nodes) || sk.Nodes[sk.Root] == nil {
		return fmt.Errorf("sketch: root %d is not a live node", sk.Root)
	}
	for i, u := range sk.Nodes {
		if u == nil {
			continue
		}
		if u.ID != i {
			return fmt.Errorf("sketch: node at index %d has ID %d", i, u.ID)
		}
		if u.Count <= 0 {
			return fmt.Errorf("sketch: node %d has count %d", u.ID, u.Count)
		}
		prev := -1
		for _, e := range u.Edges {
			if e.Child <= prev {
				return fmt.Errorf("sketch: node %d edges not sorted/unique at child %d", u.ID, e.Child)
			}
			prev = e.Child
			if e.Child < 0 || e.Child >= len(sk.Nodes) || sk.Nodes[e.Child] == nil {
				return fmt.Errorf("sketch: node %d has edge to dead node %d", u.ID, e.Child)
			}
			for _, v := range [...]float64{e.Avg, e.Sum, e.SumSq, e.MinK} {
				// NaN fails every comparison, so it must be rejected by
				// what it is rather than by a bound.
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return fmt.Errorf("sketch: node %d edge to %d: statistic %g is not finite and non-negative", u.ID, e.Child, v)
				}
			}
			// Each element has one parent, so the children an edge counts
			// are distinct elements of the child's extent. This also bounds
			// every path product by an extent size, which keeps estimates
			// finite.
			if c := float64(sk.Nodes[e.Child].Count); e.Sum > c+1e-6*(1+c) {
				return fmt.Errorf("sketch: node %d edge to %d: Sum %g > child count %g", u.ID, e.Child, e.Sum, c)
			}
			wantAvg := e.Sum / float64(u.Count)
			if math.Abs(e.Avg-wantAvg) > 1e-6*(1+math.Abs(wantAvg)) {
				return fmt.Errorf("sketch: node %d edge to %d: Avg %g != Sum/Count %g", u.ID, e.Child, e.Avg, wantAvg)
			}
			// Cauchy-Schwarz: SumSq >= Sum^2 / Count.
			if lb := e.Sum * e.Sum / float64(u.Count); e.SumSq < lb-1e-6*(1+lb) {
				return fmt.Errorf("sketch: node %d edge to %d: SumSq %g < Sum^2/Count %g", u.ID, e.Child, e.SumSq, lb)
			}
			if e.MinK > e.Avg+1e-6*(1+e.Avg) {
				return fmt.Errorf("sketch: node %d edge to %d: MinK %g > Avg %g", u.ID, e.Child, e.MinK, e.Avg)
			}
		}
	}
	return sk.checkAcyclic()
}

func (sk *Sketch) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make([]int8, len(sk.Nodes))
	var visit func(id int) error
	visit = func(id int) error {
		switch state[id] {
		case gray:
			return fmt.Errorf("sketch: cycle through node %d (%s)", id, sk.Nodes[id].Label)
		case black:
			return nil
		}
		state[id] = gray
		for _, e := range sk.Nodes[id].Edges {
			if err := visit(e.Child); err != nil {
				return err
			}
		}
		state[id] = black
		return nil
	}
	for id, u := range sk.Nodes {
		if u == nil {
			continue
		}
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}

// Reaches reports whether to is reachable from from following synopsis
// edges (used to reject cycle-creating merges).
func (sk *Sketch) Reaches(from, to int) bool {
	if from == to {
		return true
	}
	seen := make(map[int]bool)
	stack := []int{from}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		u := sk.Nodes[id]
		if u == nil {
			continue
		}
		for _, e := range u.Edges {
			if e.Child == to {
				return true
			}
			if !seen[e.Child] {
				seen[e.Child] = true
				stack = append(stack, e.Child)
			}
		}
	}
	return false
}

// TotalElements reports the summed extent sizes over live nodes.
func (sk *Sketch) TotalElements() int {
	n := 0
	for _, u := range sk.Nodes {
		if u != nil {
			n += u.Count
		}
	}
	return n
}
