package eval

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"

	"treesketch/internal/esd"
	"treesketch/internal/xmltree"
)

// RNode is one node of a result synopsis TS_Q: it represents the elements
// of one source-synopsis node that appear in the bindings of one query
// variable (the uQ(u, q) association of Section 4.3).
type RNode struct {
	ID    int
	Var   string // query variable name ("q1")
	VarID int    // pre-order index of the variable in the query tree
	Label string // element tag
	Src   int    // source synopsis node ID
	Count float64
	Edges []REdge
}

// REdge carries the estimated per-element descendant count k from a parent
// result node to a child result node.
type REdge struct {
	Child int
	K     float64
}

// Result is the output of approximate query evaluation: a TreeSketch-style
// synopsis of the (approximate) nesting tree.
type Result struct {
	Nodes []*RNode
	Root  int
	// Empty marks a query answer known to be empty (a required variable
	// found no bindings).
	Empty bool
	// Truncated records that embedding enumeration hit MaxEmbeddings; the
	// counts are then lower bounds.
	Truncated bool
	// Canceled marks a batch evaluation aborted because its context expired
	// mid-enumeration. The rest of the result is a bare placeholder (no
	// nodes, no counts) and must not be served as an answer; callers route
	// it to their deadline path. Canceled results are never fingerprinted.
	Canceled bool
	// VarOptional marks, per query-variable index, whether the variable is
	// bound through a dashed (optional) edge; used by Selectivity.
	VarOptional []bool
	// TopK records the streaming expansion that produced this result when
	// Options.Limit was set; nil on the batch path. It is diagnostic only:
	// Fingerprint ignores it, so a fully exhausted streaming run hashes
	// identically to its batch counterpart.
	TopK *TopKInfo
}

// Fingerprint hashes the result synopsis' canonical bytes (FNV-1a, the same
// construction as sketch.Fingerprint): structure flags, node identities,
// labels, exact count bits, and edge k bits. Two results compare equal iff
// every float matches bit-for-bit, which is the determinism oracle the
// streaming-vs-batch differential tests rely on. TopK metadata is excluded.
func (r *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wBool := func(v bool) {
		if v {
			wInt(1)
		} else {
			wInt(0)
		}
	}
	wBool(r.Empty)
	wBool(r.Truncated)
	wInt(r.Root)
	wInt(len(r.VarOptional))
	for _, o := range r.VarOptional {
		wBool(o)
	}
	wInt(len(r.Nodes))
	for _, rn := range r.Nodes {
		wInt(rn.ID)
		wInt(rn.VarID)
		wInt(rn.Src)
		wInt(len(rn.Label))
		h.Write([]byte(rn.Label))
		wFloat(rn.Count)
		wInt(len(rn.Edges))
		for _, e := range rn.Edges {
			wInt(e.Child)
			wFloat(e.K)
		}
	}
	return h.Sum64()
}

// Selectivity estimates the number of binding tuples of the query
// (Section 4.4); see selectivity. A count-only evaluation (Count) computes
// the same value without materializing the Result.
func (r *Result) Selectivity() float64 {
	if r.Empty || len(r.Nodes) == 0 {
		return 0
	}
	nv := 0
	for _, rn := range r.Nodes {
		nv = max(nv, rn.VarID+1)
	}
	n := len(r.Nodes)
	buf := make([]float64, n+nv)
	return selectivity(r, r.Root, r.VarOptional, buf[:n], buf[n:], make([]bool, nv), make([]int32, nv))
}

func (r *Result) varOf(id int) int { return r.Nodes[id].VarID }

func (r *Result) edgesOf(id int) []REdge { return r.Nodes[id].Edges }

// tupleGraph is what the Section 4.4 pass reads of a result synopsis: per
// node, its query variable and its outgoing edges. A materialized Result
// provides it, and so does the evaluator's working graph, which a
// count-only evaluation reads without materializing it.
type tupleGraph interface {
	varOf(id int) int
	edgesOf(id int) []REdge
}

// selectivity is the Section 4.4 estimate: a single bottom-up pass over g
// computes, per result node, the average number of binding tuples per
// element of its extent; the estimate is the value at root. optional marks
// the variables bound through a dashed edge. memo holds one slot per node,
// and perVar, seen and vars one per query variable, perVar and seen zeroed.
func selectivity(g tupleGraph, root int, optional []bool, memo, perVar []float64, seen []bool, vars []int32) float64 {
	for i := range memo {
		memo[i] = -1
	}
	p := tuplePass{g: g, optional: optional, memo: memo, perVar: perVar, seen: seen, vars: vars[:0]}
	return p.tuples(root)
}

// tuplePass is the state of one selectivity pass.
type tuplePass struct {
	g        tupleGraph
	optional []bool
	memo     []float64 // per node: tuples per element, -1 until settled
	perVar   []float64 // per variable: the node at hand's summed k * tuples
	seen     []bool    // per variable: whether the node at hand reaches it
	vars     []int32   // the node at hand's child variables
}

// tuples settles node id. Its tuples-per-element is the product over child
// variables of the summed k * tuples(child). An absent variable
// contributes factor 1 (for required variables the pruning pass already
// removed nodes missing them); an optional variable's factor is clamped to
// at least 1, since elements without matches still contribute a NULL
// binding.
func (p *tuplePass) tuples(id int) float64 {
	if p.memo[id] >= 0 {
		return p.memo[id]
	}
	p.memo[id] = 0 // cycle guard; result graphs are DAGs
	edges := p.g.edgesOf(id)
	//lint:ctxpoll memoized: the pass follows each result edge once, and the evaluation that built the edge charged it
	for _, e := range edges {
		p.tuples(e.Child)
	}
	// The children are settled, so no recursion runs below: perVar, seen
	// and vars belong to this node until it returns.
	vars := p.vars[:0]
	for _, e := range edges {
		v := p.g.varOf(e.Child)
		if !p.seen[v] {
			p.seen[v] = true
			vars = append(vars, int32(v))
		}
		p.perVar[v] += e.K * p.memo[e.Child]
	}
	// The per-variable factors multiply into a float in ascending
	// variable order.
	slices.Sort(vars)
	total := 1.0
	for _, v := range vars {
		s := p.perVar[v]
		p.perVar[v], p.seen[v] = 0, false
		if int(v) < len(p.optional) && p.optional[v] && s < 1 {
			s = 1
		}
		total *= s
	}
	p.memo[id] = total
	return total
}

// esdExpandCap bounds the materialized approximate nesting tree used for
// ESD comparisons; beyond it the fractional synopsis graph is compared
// directly.
const esdExpandCap = 1 << 19

// ESDGraph produces the DAG form of the approximate nesting tree for the
// ESD metric, with variable-tagged labels matching ExactResult.ESDGraph.
//
// Following the paper (the approximate answer is "retrieved by expanding
// TS_Q"), the result synopsis is first expanded: fractional average counts
// materialize as a mixture of integer counts (stochastic rounding with
// carry), which is what the metric should judge. Very large answers fall
// back to comparing the synopsis graph directly, whose fractional
// multiplicities the metric also accepts. Returns nil for an empty result.
func (r *Result) ESDGraph() *esd.Node {
	if r.Empty || len(r.Nodes) == 0 {
		return nil
	}
	if t, err := r.expand(esdExpandCap, true); err == nil {
		return esd.FromTree(t, nil)
	}
	return r.ESDGraphSynopsis()
}

// ESDGraphSynopsis converts the result synopsis directly into the metric's
// DAG form, with fractional edge multiplicities. Returns nil for an empty
// result.
func (r *Result) ESDGraphSynopsis() *esd.Node {
	if r.Empty || len(r.Nodes) == 0 {
		return nil
	}
	nodes := make([]*esd.Node, len(r.Nodes))
	for i, rn := range r.Nodes {
		nodes[i] = &esd.Node{Label: rn.Var + ":" + rn.Label}
	}
	for i, rn := range r.Nodes {
		for _, e := range rn.Edges {
			if e.K > 0 {
				nodes[i].Edges = append(nodes[i].Edges, esd.Edge{Child: nodes[e.Child], Mult: e.K})
			}
		}
	}
	return esd.Consolidate(nodes[r.Root])
}

// Expand materializes an approximate nesting tree: fractional counts are
// realized with deterministic stochastic rounding, exactly like
// sketch.Expand. maxNodes <= 0 selects a default cap.
func (r *Result) Expand(maxNodes int) (*xmltree.Tree, error) {
	return r.expand(maxNodes, false)
}

func (r *Result) expand(maxNodes int, varLabels bool) (*xmltree.Tree, error) {
	if maxNodes <= 0 {
		maxNodes = 1 << 20
	}
	t := xmltree.NewTree()
	if r.Empty || len(r.Nodes) == 0 {
		return t, nil
	}
	// Edges of one result node that bind the same query variable are
	// alternatives (one per surviving source-cluster shape), so expansion
	// realizes the *group* total per element — the number of bindings of
	// that variable — with a rounding carry, and then allocates the
	// children among the group's edges by accumulated credit. Drawing each
	// edge independently would fabricate elements with zero or many
	// bindings where every real element has, say, exactly one.
	type group struct {
		varID int
		total float64
		edges []REdge
		carry float64
		// credit accumulates per-edge entitlement; children go to the
		// highest-credit edge first.
		credit []float64
	}
	groupsOf := make(map[int][]*group)
	groupFor := func(id int) []*group {
		if gs, ok := groupsOf[id]; ok {
			return gs
		}
		rn := r.Nodes[id]
		edges := append([]REdge(nil), rn.Edges...)
		sort.Slice(edges, func(i, j int) bool { return edges[i].Child < edges[j].Child })
		byVar := make(map[int]*group)
		var gs []*group
		for _, e := range edges {
			v := r.Nodes[e.Child].VarID
			g := byVar[v]
			if g == nil {
				g = &group{varID: v}
				byVar[v] = g
				gs = append(gs, g)
			}
			g.total += e.K
			g.edges = append(g.edges, e)
		}
		sort.Slice(gs, func(i, j int) bool { return gs[i].varID < gs[j].varID })
		for _, g := range gs {
			g.credit = make([]float64, len(g.edges))
			// Dithered initial phase so sibling groups do not fire in
			// lockstep across elements.
			h := uint64(id)*0x9e3779b97f4a7c15 ^ uint64(g.varID)*0xbf58476d1ce4e5b9
			h ^= h >> 31
			h *= 0x94d049bb133111eb
			h ^= h >> 29
			g.carry = float64(h%(1<<20)) / (1 << 20)
		}
		groupsOf[id] = gs
		return gs
	}

	var build func(id int) (*xmltree.Node, error)
	build = func(id int) (*xmltree.Node, error) {
		if t.Size() >= maxNodes {
			return nil, fmt.Errorf("eval: expansion exceeds %d nodes", maxNodes)
		}
		rn := r.Nodes[id]
		label := rn.Label
		if varLabels {
			label = rn.Var + ":" + rn.Label
		}
		n := t.NewNode(label)
		for _, g := range groupFor(id) {
			want := g.total + g.carry
			count := int(want)
			g.carry = want - float64(count)
			for i := range g.edges {
				g.credit[i] += g.edges[i].K
			}
			for j := 0; j < count; j++ {
				best := 0
				for i := 1; i < len(g.credit); i++ {
					if g.credit[i] > g.credit[best] {
						best = i
					}
				}
				g.credit[best]--
				c, err := build(g.edges[best].Child)
				if err != nil {
					return nil, err
				}
				n.Children = append(n.Children, c)
			}
		}
		return n, nil
	}
	root, err := build(r.Root)
	if err != nil {
		return nil, err
	}
	t.Root = root
	return t, nil
}

// TotalNodes estimates the number of elements in the approximate nesting
// tree (sum of extent counts).
func (r *Result) TotalNodes() float64 {
	var s float64
	for _, rn := range r.Nodes {
		s += rn.Count
	}
	return s
}

// RelativeError computes the paper's error measure for selectivity
// estimation (Section 6.1): |true - est| / max(true, sanity), where sanity
// guards against inflated percentages on low-count queries.
func RelativeError(truth, est, sanity float64) float64 {
	denom := math.Max(truth, sanity)
	if denom <= 0 {
		if est == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(truth-est) / denom
}
