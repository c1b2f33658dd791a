package eval

import (
	"slices"
	"sync"
	"unsafe"

	"treesketch/internal/query"
)

// scratchCapBytes bounds the memory one pooled approxScratch may keep
// between evaluations: a scratch that grew past it is dropped instead of
// pooled, so pooled memory never tracks the largest query ever seen.
const scratchCapBytes = 160 << 10

// scratchPool holds idle scratches. It is package-level rather than per
// sketch: two requests overlapping on one sketch, or a stream of
// short-lived delta sketches, would miss a per-sketch slot every time.
var scratchPool = sync.Pool{New: func() any { return new(approxScratch) }}

// approxScratch is the per-evaluation working memory of the approximate
// evaluator, and the evaluator itself. newApproxer takes one from
// scratchPool and the evaluation returns it after flush; in between it
// belongs to exactly one evaluation. release resets every field before
// pooling, so an idle scratch pins no sketch, query, context or registry,
// and a canceled evaluation's half-open state never reaches the next one.
type approxScratch struct {
	// The evaluation this scratch serves (approx.go); newApproxer fills it
	// and reset zeroes it.
	a approxer

	// Query plan: the variables in pre-order; for the j-th edge of
	// variable qi, its child variable childVar[edgeLo[qi]+j]; per variable
	// whether some edge of it is solid (required), and whether it is bound
	// through a dashed (optional) edge, which the answer reports as
	// Result.VarOptional.
	qnodes   []*query.Node
	edgeLo   []int32
	childVar []int32
	solid    []bool
	optional []bool

	// Enumeration state (enumFast): the dedup path-ID stack, the landing
	// node of each placed step, and the path trie.
	idStack []int32
	landing []int32
	trie    pathTrie

	// Flat predicate-path records, used as a stack by walk: a nested walk
	// pushes its records above the outer ones and truncates back. A
	// record's step assignments are a chain of fixed-width rows in rows:
	// a next link (-1 ends the chain), then one landing node per step.
	recs []embRec
	rows []int32

	// The one accumulation open at a time (see walk): edgeTerms' or a
	// PaperMode branchSel's per-terminal sums, as dense sums plus the
	// touched terminals, or a refined branchSel's existence sum. Each is
	// zeroed again as it is read, and by reset.
	termSum  []float64
	termSeen []bool
	touched  []int32
	terms    []termK
	existSum float64

	// Memos: branchSel's selectivities and the can-complete tables, which
	// are carved from canArena.
	selMemo  map[selKey]float64
	canTabs  map[*query.Path]canTable
	canArena []uint8
	canUsed  int

	// The working result graph: nodes in creation order with their
	// outgoing edges as runs of edges, and per variable the IDs it bound.
	nodes    []wnode
	edges    []REdge
	bind     [][]int32
	resIndex map[resKey]int32

	// finish's buffers, and the count-only Section 4.4 pass's (selectivity
	// in result.go): its per-node memo, and per variable the node at hand's
	// sums (varSum, which conditionOnRequired uses the same way), marks and
	// list.
	keep     []bool
	remap    []int32
	factor   []float64
	varSum   []float64
	varState []int8
	tuples   []float64
	varSeen  []bool
	vars     []int32
}

// embRec is one distinct node path of a path expression's enumeration: its
// terminal synopsis node, its hop product (see enumFast), and the first and
// last rows of its chain of step assignments.
type embRec struct {
	prod       float64
	term       int32
	head, tail int32
}

// wnode is a result node under construction: the (synopsis node, query
// variable) pair it stands for and its outgoing edges edges[lo:hi].
type wnode struct {
	src, qi int32
	lo, hi  int32
}

// takeScratch fetches a scratch and prepares it for evaluating q over a
// synopsis of n nodes.
func takeScratch(q *query.Query, n int) *approxScratch {
	sc := scratchPool.Get().(*approxScratch)
	if q.Root != nil {
		sc.addVar(q.Root, false)
	}
	for len(sc.bind) < len(sc.qnodes) {
		sc.bind = append(sc.bind, nil)
	}
	if len(sc.termSum) < n {
		sc.termSum = make([]float64, n)
		sc.termSeen = make([]bool, n)
	}
	if sc.selMemo == nil {
		sc.selMemo = make(map[selKey]float64)
	}
	if sc.canTabs == nil {
		sc.canTabs = make(map[*query.Path]canTable)
	}
	if sc.resIndex == nil {
		sc.resIndex = make(map[resKey]int32)
	}
	return sc
}

// addVar appends n, bound through an optional edge or not, and its subtree
// to the plan in pre-order, the numbering q.Vars uses. A child variable is
// numbered when its edge is visited, so the children of one variable carry
// increasing indices in edge order.
func (sc *approxScratch) addVar(n *query.Node, optional bool) {
	sc.qnodes = append(sc.qnodes, n)
	sc.optional = append(sc.optional, optional)
	lo := len(sc.childVar)
	sc.edgeLo = append(sc.edgeLo, int32(lo))
	solid := false
	for _, e := range n.Edges {
		sc.childVar = append(sc.childVar, 0)
		solid = solid || !e.Optional
	}
	sc.solid = append(sc.solid, solid)
	//lint:ctxpoll the plan visits each query variable once, linear in the query's size
	for j, e := range n.Edges {
		sc.childVar[lo+j] = int32(len(sc.qnodes))
		sc.addVar(e.Child, e.Optional)
	}
}

// child returns the variable index of the child of qi's j-th edge.
func (sc *approxScratch) child(qi, j int) int {
	return int(sc.childVar[int(sc.edgeLo[qi])+j])
}

// release returns sc to the pool, emptied, or drops it when it grew past
// scratchCapBytes.
func (sc *approxScratch) release() {
	if sc.bytes() > scratchCapBytes {
		return
	}
	sc.reset()
	scratchPool.Put(sc)
}

// reset empties every field for the next evaluation and clears every
// pointer into a sketch, query, context or registry. A canceled evaluation
// stops wherever its last poll was, possibly with an accumulation open, so
// the touched terminal sums and the existence sum are zeroed here too. The
// trie needs nothing: each enumeration starts it afresh.
func (sc *approxScratch) reset() {
	sc.a = approxer{}
	clear(sc.qnodes)
	sc.qnodes, sc.edgeLo, sc.childVar = sc.qnodes[:0], sc.edgeLo[:0], sc.childVar[:0]
	sc.solid, sc.optional = sc.solid[:0], sc.optional[:0]
	sc.idStack, sc.landing = sc.idStack[:0], sc.landing[:0]
	sc.recs, sc.rows = sc.recs[:0], sc.rows[:0]
	for _, v := range sc.touched {
		sc.termSum[v], sc.termSeen[v] = 0, false
	}
	sc.touched, sc.terms, sc.existSum = sc.touched[:0], sc.terms[:0], 0
	clear(sc.selMemo)
	clear(sc.canTabs)
	sc.canUsed = 0
	sc.nodes, sc.edges = sc.nodes[:0], sc.edges[:0]
	for i := range sc.bind {
		sc.bind[i] = sc.bind[i][:0]
	}
	clear(sc.resIndex)
	sc.keep, sc.remap, sc.factor = sc.keep[:0], sc.remap[:0], sc.factor[:0]
	sc.varSum, sc.varState = sc.varSum[:0], sc.varState[:0]
	sc.tuples, sc.varSeen, sc.vars = sc.tuples[:0], sc.varSeen[:0], sc.vars[:0]
}

// bytes estimates the memory sc holds: every buffer's backing array, and
// each map at its entry count times its key and value size. A cleared map
// keeps its buckets, so a pooled map can be larger than its entry count
// says, but never larger than one that passed the cap when its evaluation
// released the scratch.
func (sc *approxScratch) bytes() int {
	n := capBytes(sc.qnodes) + capBytes(sc.edgeLo) + capBytes(sc.childVar) + capBytes(sc.solid) + capBytes(sc.optional) +
		capBytes(sc.idStack) + capBytes(sc.landing) + sc.trie.bytes() +
		capBytes(sc.recs) + capBytes(sc.rows) +
		capBytes(sc.termSum) + capBytes(sc.termSeen) + capBytes(sc.touched) + capBytes(sc.terms) +
		mapBytes(sc.selMemo) + mapBytes(sc.canTabs) + capBytes(sc.canArena) +
		capBytes(sc.nodes) + capBytes(sc.edges) + capBytes(sc.bind) + mapBytes(sc.resIndex) +
		capBytes(sc.keep) + capBytes(sc.remap) + capBytes(sc.factor) + capBytes(sc.varSum) + capBytes(sc.varState) +
		capBytes(sc.tuples) + capBytes(sc.varSeen) + capBytes(sc.vars)
	for _, b := range sc.bind {
		n += capBytes(b)
	}
	return n
}

// mapBytes is the size of m's keys and values.
func mapBytes[K comparable, V any](m map[K]V) int {
	var k K
	var v V
	return len(m) * int(unsafe.Sizeof(k)+unsafe.Sizeof(v))
}

// capBytes is the backing-array size of s.
func capBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// pushRec appends a record for a new distinct node path with the current
// landing nodes as its first step assignment.
func (sc *approxScratch) pushRec(term int, prod float64, landing []int32) {
	r := sc.pushRow(landing)
	sc.recs = append(sc.recs, embRec{prod: prod, term: int32(term), head: r, tail: r})
}

// addAssignment chains another step assignment onto record ri.
func (sc *approxScratch) addAssignment(ri int, landing []int32) {
	r := sc.pushRow(landing)
	rec := &sc.recs[ri]
	sc.rows[rec.tail] = r
	rec.tail = r
}

// pushRow appends one assignment row and returns its offset.
func (sc *approxScratch) pushRow(landing []int32) int32 {
	r := int32(len(sc.rows))
	sc.rows = append(sc.rows, -1)
	sc.rows = append(sc.rows, landing...)
	return r
}

// addTerm adds k to terminal term's sum in the open accumulation.
func (sc *approxScratch) addTerm(term int, k float64) {
	if !sc.termSeen[term] {
		sc.termSeen[term] = true
		sc.touched = append(sc.touched, int32(term))
	}
	sc.termSum[term] += k
}

// addExistence adds one embedding's existence probability to the open
// existence sum.
func (sc *approxScratch) addExistence(_ int, p float64) {
	sc.existSum += p
}

// drainTerms closes the open accumulation: it returns the touched
// terminals in ascending order with their sums, in sc.terms (valid until
// the next drain), and zeroes the dense sums for the next accumulation.
func (sc *approxScratch) drainTerms() []termK {
	slices.Sort(sc.touched)
	sc.terms = sc.terms[:0]
	for _, v := range sc.touched {
		sc.terms = append(sc.terms, termK{term: int(v), k: sc.termSum[v]})
		sc.termSum[v], sc.termSeen[v] = 0, false
	}
	sc.touched = sc.touched[:0]
	return sc.terms
}

// varOf and edgesOf present the working graph to the Section 4.4 pass
// (tupleGraph in result.go).
func (sc *approxScratch) varOf(id int) int { return int(sc.nodes[id].qi) }

func (sc *approxScratch) edgesOf(id int) []REdge {
	nd := &sc.nodes[id]
	return sc.edges[nd.lo:nd.hi]
}

// resize returns *buf resliced to n zeroed elements, reallocating it only
// when it is too short.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}
