package eval

import (
	"container/heap"
	"container/list"
	"context"
	"math"
	"slices"
	"sync"

	"treesketch/internal/query"
	"treesketch/internal/sketch"
)

// TopKInfo describes a streaming top-k evaluation (Options.Limit != 0): how
// much of the result graph was expanded, how much answer mass the expanded
// prefix carries, and an upper bound on the mass that was truncated.
//
// Masses are in raw answer-mass units — estimated elements of the
// approximate nesting tree, computed on the unpruned, unconditioned result
// graph (the additive notion TotalNodes uses) — so EmittedMass + ErrorBound
// bounds the full answer's raw mass from above. Over a count-stable
// summary (exact mode) the masses count document elements exactly, still
// before required-edge pruning, so they include bindings the answer drops
// for a missing required child.
type TopKInfo struct {
	// K is the requested node budget; 0 means unbounded streaming.
	K int
	// Expanded counts the result nodes fully expanded (emitted with their
	// outgoing edges); this is what K bounds.
	Expanded int
	// Discovered counts all result nodes reached, including the unexpanded
	// frontier. Discovered - Expanded is the frontier size.
	Discovered int
	// EmittedMass is the raw answer mass of the streamed result: every
	// node it holds, the unexpanded frontier included.
	EmittedMass float64
	// ErrorBound bounds the raw answer mass of everything the streamed
	// result does not hold: descendants of frontier nodes plus any mass
	// flowing through them into already-streamed nodes. +Inf when the
	// synopsis is recursive enough that the chain mass below a frontier
	// node genuinely diverges (or cannot cheaply be proven finite). 0 when
	// Exhausted.
	ErrorBound float64
	// Exhausted reports that the expansion covered the full result graph
	// with no enumeration truncated; the result is then bit-identical to
	// the batch path.
	Exhausted bool
	// WorkCapped reports that the shared enumeration work pool (sized from
	// K, not the full batch MaxEmbeddings allowance) ran dry mid-expansion.
	// The truncated enumerations' missing mass is priced into ErrorBound
	// via the per-edge mass DP, so the bound stays sound.
	WorkCapped bool
	// DeadlineHit reports that the expansion stopped at the context
	// deadline. At least one node (the answer root) is always expanded,
	// even past the deadline, so a deadline-bounded caller gets a partial
	// answer rather than nothing.
	DeadlineHit bool
}

// topK is the streaming counterpart of batch: best-first expansion of the
// result graph under a node budget, followed by a canonical replay that
// rebuilds the result in batch discovery order. With an unbounded budget
// the replayed result is bit-identical to the batch path (node IDs, edge
// order, every float accumulation), because each edge's per-terminal sums
// are a pure function of (source synopsis node, query edge) — see
// edgeTerms — and the replay applies them in exactly the batch order.
func (a *approxer) topK(ctx context.Context) *Result {
	span := a.reg.StartSpan("eval.topk.query")
	a.reg.Counter("eval.topk.queries").Inc()
	res := a.runTopK(ctx)
	span.End()
	a.flush(len(res.Nodes), res.Empty, res.Truncated)
	info := res.TopK
	a.reg.Counter("eval.topk.expanded").Add(int64(info.Expanded))
	a.reg.Counter("eval.topk.discovered").Add(int64(info.Discovered))
	switch {
	case info.DeadlineHit:
		a.reg.Counter("eval.topk.deadline_hits").Inc()
	case info.Exhausted:
		a.reg.Counter("eval.topk.exhausted").Inc()
	case info.WorkCapped:
		a.reg.Counter("eval.topk.work_capped").Inc()
	default:
		a.reg.Counter("eval.topk.budget_stops").Inc()
	}
	if !math.IsInf(info.ErrorBound, 1) {
		a.reg.Histogram("eval.topk.error_bound").Observe(info.ErrorBound)
	}
	if a.tr != nil {
		a.tr.AddCounter("topk_expanded", int64(info.Expanded))
		a.tr.AddCounter("topk_frontier", int64(info.Discovered-info.Expanded))
		if info.DeadlineHit {
			a.tr.AddCounter("topk_deadline_hit", 1)
		}
	}
	// Last: the approxer lives in the scratch, which another evaluation
	// may take the moment it is released.
	a.release()
	return res
}

// runTopK drives the two phases. The expansion is the trace's
// "eval.topk.expand" span (it does all the embedding enumeration); the
// replay plus prune/condition/count pipeline is "eval.topk.replay".
func (a *approxer) runTopK(ctx context.Context) *Result {
	info := &TopKInfo{}
	if a.opts.Limit > 0 {
		info.K = a.opts.Limit
	}
	mm := massFor(a.sk, a.q, a.sc.qnodes, a.sc.child)
	es := a.tr.StartSpan("eval.topk.expand")
	exp := a.expandBestFirst(ctx, mm, info)
	es.End()
	rs := a.tr.StartSpan("eval.topk.replay")
	res := a.replayTopK(exp, mm, info)
	rs.End()
	res.TopK = info
	return res
}

// tkNode is one discovered result-node key (source synopsis node, query
// variable) during best-first expansion.
type tkNode struct {
	src, qi  int
	seq      int     // discovery order; the deterministic heap tie-break
	count    float64 // running raw extent count (grows as in-edges appear)
	prio     float64 // count x (1 + per-element subtree mass bound)
	heapIdx  int     // position in the frontier heap; -1 once popped
	expanded bool
}

// tkEdgeKey identifies one recorded edge enumeration. The query edge
// pointer determines the parent variable, and result nodes are unique per
// (source, variable), so each key is computed at most once.
type tkEdgeKey struct {
	src  int
	edge *query.Edge
}

// tkExpansion is the outcome of the expansion phase: the discovered keys
// with their expansion state, the recorded per-edge terminal sums the
// replay folds back into a result graph, and the enumerations the work
// pool cut short (their partial terms are kept; the missing remainder is
// priced into the error bound during replay).
type tkExpansion struct {
	nodes map[resKey]*tkNode
	edges map[tkEdgeKey][]termK
	trunc []tkTrunc
}

// tkTrunc records one work-pool-truncated edge enumeration: the expanded
// parent (source synopsis node, query variable) and the query edge whose
// embedding walk stopped early. Per element of the parent's extent, the
// mass missing below that edge is at most pv[edge][src] — the same
// per-edge DP vector computeMass sums into dm — so the replay can charge
// raw(parent) * pv[edge][src] to the error bound.
type tkTrunc struct {
	src, qi int
	edge    *query.Edge
}

// expandBestFirst grows the result graph from the root, always expanding
// the frontier node with the highest estimated answer-mass contribution
// (the priority-queue best-first tree-search idiom). Expansion of a node
// runs the full edge enumeration for every outgoing query edge of its
// variable and records the per-terminal sums; newly reached keys join the
// frontier. The loop stops when the budget is spent, the deadline passed,
// or the frontier drained.
//
// Priorities are heuristic (a node's count can keep growing after its
// priority was last touched), but every input to them is deterministic, so
// the expansion set — and therefore the final result — is reproducible.
func (a *approxer) expandBestFirst(ctx context.Context, mm *queryMass, info *TopKInfo) *tkExpansion {
	exp := &tkExpansion{
		nodes: make(map[resKey]*tkNode),
		edges: make(map[tkEdgeKey][]termK),
	}
	dm := mm.dm
	if info.K > 0 {
		// A finite node budget implies a finite answer prefix, so the
		// expansion must not pay full-batch enumeration prices: all edge
		// enumerations of this evaluation (nested predicate walks included)
		// draw from one shared pool scaled to K instead of taking a fresh
		// MaxEmbeddings allowance per call. Calls the pool cuts short keep
		// their partial terms and are charged to the error bound via
		// exp.trunc. Unbounded streaming (Limit < 0) keeps the per-call
		// batch budgets, preserving bit-identity with the batch path.
		pb := 4 * info.K
		if pb < 128 {
			pb = 128
		}
		if pb > a.opts.MaxEmbeddings {
			pb = a.opts.MaxEmbeddings
		}
		a.poolOn, a.poolBudget, a.poolWork = true, pb, 64*pb
		defer func() { a.poolOn = false }()
	}
	root := &tkNode{src: a.sk.Root, qi: 0, count: 1}
	root.prio = tkPrio(root.count, dm[0][root.src])
	exp.nodes[resKey{root.src, 0}] = root
	h := &tkHeap{}
	heap.Push(h, root)
	seq := 1
	for h.Len() > 0 {
		// The answer root is always expanded, even past the deadline: a
		// streaming caller is promised at least one emitted node.
		if info.Expanded > 0 {
			if err := ctx.Err(); err != nil {
				info.DeadlineHit = true
				break
			}
			if info.K > 0 && info.Expanded >= info.K {
				break
			}
		}
		u := heap.Pop(h).(*tkNode)
		u.expanded = true
		info.Expanded++
		capped := false
		for j, edge := range a.sc.qnodes[u.qi].Edges {
			// Snapshot the sticky truncation flag around the enumeration so
			// a pool-capped call is attributable to this (node, edge) pair.
			// A node is never left half-expanded: once the pool runs dry its
			// remaining edges still enumerate (instantly truncating against
			// the empty pool) so every edge is either complete or recorded.
			was := a.truncated
			a.truncated = false
			// The recorded copy outlives the scratch's term buffer.
			terms := slices.Clone(a.edgeTerms(u.src, edge))
			if a.truncated && a.poolOn {
				exp.trunc = append(exp.trunc, tkTrunc{src: u.src, qi: u.qi, edge: edge})
				capped = true
			}
			a.truncated = a.truncated || was
			exp.edges[tkEdgeKey{u.src, edge}] = terms
			ci := a.sc.child(u.qi, j)
			for _, tk := range terms {
				key := resKey{tk.term, ci}
				c := exp.nodes[key]
				if c == nil {
					c = &tkNode{src: tk.term, qi: ci, seq: seq, count: u.count * tk.k}
					seq++
					c.prio = tkPrio(c.count, dm[ci][c.src])
					exp.nodes[key] = c
					heap.Push(h, c)
					continue
				}
				c.count += u.count * tk.k
				if !c.expanded {
					c.prio = tkPrio(c.count, dm[ci][c.src])
					heap.Fix(h, c.heapIdx)
				}
			}
		}
		if capped {
			info.WorkCapped = true
			break
		}
	}
	info.Discovered = len(exp.nodes)
	info.Exhausted = h.Len() == 0 && !info.WorkCapped
	return exp
}

// replayTopK rebuilds the result from the recorded expansion through the
// batch path's grow, so every result node and edge is added in
// exactly the sequence the batch path would have produced for the expanded
// subset. Only expanded nodes have recorded edges, so frontier (unexpanded)
// nodes keep their incoming edges but emit none; they are exempt from
// required-child pruning (their subtrees were never searched). Every node's
// raw count is emitted mass, and a frontier node's also prices the error
// bound.
func (a *approxer) replayTopK(exp *tkExpansion, mm *queryMass, info *TopKInfo) *Result {
	dm := mm.dm
	a.grow(func(src int, edge *query.Edge) []termK {
		return exp.edges[tkEdgeKey{src, edge}]
	})

	// Mass accounting on the raw graph, before pruning and conditioning
	// reshape the counts. The bound sums, per frontier node f, its raw count
	// times the per-element chain-mass bound below (f's variable, f's source
	// cluster): every truncated root-to-node path crosses the frontier at a
	// first unexpanded node, its prefix product is part of that node's raw
	// count, and its suffix product is dominated by the mass DP (which
	// ignores predicate selectivities and enumeration caps, both of which
	// only shrink the real counts).
	raw := a.rawCounts()
	nodes := a.sc.nodes
	a.pruneExempt = make([]bool, len(nodes))
	for i, nd := range nodes {
		info.EmittedMass += raw[i]
		if n := exp.nodes[resKey{int(nd.src), int(nd.qi)}]; n != nil && n.expanded {
			continue
		}
		a.pruneExempt[i] = true
		info.ErrorBound += raw[i] * dm[nd.qi][nd.src]
	}
	// Pool-truncated enumerations: the frontier term above does not cover
	// them — their parent IS expanded, so the mass missing below the cut
	// edge never reaches a frontier node. Charge, per truncated (node,
	// edge), the parent's raw count times the per-edge DP bound on the
	// mass one parent element can carry through that edge. Over-counts the
	// partial terms already emitted, which only loosens the upper bound.
	// The parent also joins the prune exemption: a required child its cut
	// enumeration never reached must not erase the node (the same
	// not-fully-searched rationale as the frontier), or a capped stream
	// could answer EMPTY while reporting a positive remainder.
	for _, t := range exp.trunc {
		id, ok := a.sc.resIndex[resKey{t.src, t.qi}]
		if !ok {
			info.ErrorBound = math.Inf(1)
			break
		}
		a.pruneExempt[id] = true
		info.ErrorBound += raw[id] * mm.pvAt(t.edge, t.src)
	}

	// The known-empty shortcut (a required variable with no bindings
	// anywhere) is sound only when the whole graph was searched; a partial
	// expansion may simply not have reached the variable yet.
	return a.answer(a.finish(info.Exhausted))
}

// rawCounts computes the unconditioned, unpruned extent counts of the
// current result graph: Count(root) = 1, Count(v) = sum over incoming edges
// of Count(u) * k(u, v), accumulated in the same node order result
// uses.
func (a *approxer) rawCounts() []float64 {
	sc := a.sc
	raw := make([]float64, len(sc.nodes))
	raw[0] = 1
	for id, nd := range sc.nodes {
		for _, e := range sc.edges[nd.lo:nd.hi] {
			raw[e.Child] += raw[id] * e.K
		}
	}
	return raw
}

// tkPrio ranks a frontier node: its raw extent count times one (its own
// elements) plus the per-element mass bound of the subtree below it.
func tkPrio(count, mass float64) float64 {
	return count * (1 + mass)
}

// tkHeap is the expansion frontier: a max-heap on priority with discovery
// order as the deterministic tie-break (merged synopses produce exact float
// ties far more often than arbitrary data would).
type tkHeap []*tkNode

func (h tkHeap) Len() int { return len(h) }
func (h tkHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h tkHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *tkHeap) Push(x any) {
	n := x.(*tkNode)
	n.heapIdx = len(*h)
	*h = append(*h, n)
}
func (h *tkHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	n.heapIdx = -1
	*h = old[:len(old)-1]
	return n
}

// massKey keys the mass-bound cache per (synopsis, canonical query text)
// pair. The query is keyed by its printed form, not pointer identity: the
// serving daemon parses a fresh *query.Query per request, and a
// pointer-keyed entry for it could never be hit again — every budgeted
// request would grow the cache by O(queryVars x sketchNodes) float64s
// forever. The printed form is a parse/print fixed point (fuzz-pinned), so
// equal text means an identical mass DP.
type massKey struct {
	sk *sketch.Sketch
	qs string
}

// massCacheCap bounds the mass-DP cache. Entries are O(queryVars x
// sketchNodes) float64s, so the cache is LRU-evicted: a client cycling
// query shapes cannot grow it without bound, and entries pinning a synopsis
// that SetCatalog swapped out age out under any ongoing budgeted traffic
// instead of holding the old sketch forever.
const massCacheCap = 64

var massCache = struct {
	sync.Mutex
	m   map[massKey]*list.Element
	lru list.List // front = most recently used; Element.Value is *massEntry
}{m: make(map[massKey]*list.Element)}

type massEntry struct {
	key massKey
	mm  *queryMass
}

// queryMass is the cached mass DP for one (synopsis, query) pair: dm[qi][u]
// upper-bounds the answer mass strictly below one element of synopsis node
// u bound to query variable qi (the sum over all downward result-graph
// chains of products of average edge counts), and pv[edge][u] is the same
// bound restricted to one outgoing query edge — the per-edge vector dm sums.
// Both feed expansion priorities and the truncation error bound only; they
// never touch fingerprinted values.
type queryMass struct {
	dm [][]float64
	pv map[*query.Edge][]float64
}

// pvAt is the per-edge bound with a defensive +Inf for anything outside the
// DP's domain (it cannot happen for edges reached through the expansion,
// but an unbounded answer is the sound default).
func (m *queryMass) pvAt(e *query.Edge, u int) float64 {
	if v, ok := m.pv[e]; ok && u >= 0 && u < len(v) {
		return v[u]
	}
	return math.Inf(1)
}

// massFor returns the memoized mass DP for (sk, q), computing it outside
// the cache lock on a miss. A racing duplicate computation keeps the copy
// stored first; computeMass is deterministic, so the copies are identical.
func massFor(sk *sketch.Sketch, q *query.Query, qnodes []*query.Node, child func(qi, j int) int) *queryMass {
	key := massKey{sk: sk, qs: q.String()}
	c := &massCache
	c.Lock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		mm := el.Value.(*massEntry).mm
		c.Unlock()
		return mm
	}
	c.Unlock()
	mm := computeMass(sk, qnodes, child)
	c.Lock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		mm = el.Value.(*massEntry).mm
	} else {
		c.m[key] = c.lru.PushFront(&massEntry{key: key, mm: mm})
		for c.lru.Len() > massCacheCap {
			back := c.lru.Back()
			c.lru.Remove(back)
			delete(c.m, back.Value.(*massEntry).key)
		}
	}
	c.Unlock()
	return mm
}

// computeMass evaluates the mass DP. Child variables carry larger pre-order
// indices than their parents, so a reverse sweep has every child's row
// ready when a parent needs it:
//
//	dm[qi][u] = sum over edges (qi -> qc) of
//	            sum over embeddings of the edge path from u of
//	            (product of Avg along the path) * (1 + dm[qc][terminal])
//
// The per-path sums deliberately over-count relative to the evaluator: step
// assignments are summed without node-path dedup, predicate selectivities
// (always <= 1) are ignored, and no enumeration cap applies — so the DP
// dominates every count the evaluator can produce, which is exactly what an
// upper bound needs.
func computeMass(sk *sketch.Sketch, qnodes []*query.Node, child func(qi, j int) int) *queryMass {
	n := len(sk.Nodes)
	mm := &queryMass{
		dm: make([][]float64, len(qnodes)),
		pv: make(map[*query.Edge][]float64),
	}
	// The DP runs uncancelled by design: it is polynomial in the synopsis
	// and query size, computed once per (sketch, query) and shared across
	// requests through massFor's cache — aborting one request's computation
	// would poison the entry every later request wants. The synopsis is a
	// TSBuild output capped by its build budget in approx mode, and in
	// exact mode the count-stable summary, whose size is the document's
	// class count.
	//lint:ctxpoll mass DP is polynomial in the synopsis (build budget, or the document's class count for a summary) and its result is cached across requests
	for qi := len(qnodes) - 1; qi >= 0; qi-- {
		row := make([]float64, n)
		//lint:ctxpoll per-edge pathMass sweeps are bounded by |steps| relaxation rounds over the synopsis, each at most as many passes as it has nodes
		for j, edge := range qnodes[qi].Edges {
			cv := child(qi, j)
			tv := make([]float64, n)
			for u := 0; u < n; u++ {
				tv[u] = 1 + mm.dm[cv][u]
			}
			pv := pathMass(sk, edge.Path.MainSteps(), tv)
			mm.pv[edge] = pv
			for u := 0; u < n; u++ {
				row[u] += pv[u]
			}
		}
		mm.dm[qi] = row
	}
	return mm
}

// pathMass computes, per synopsis node u, the sum over all embeddings of
// the step sequence starting at u of the product of average edge counts
// times the terminal value tv[terminal]. Child steps are a single backward
// sweep; descendant steps make the recurrence self-referential across the
// graph (W[u] depends on W[child] at the same step), and merged synopses
// can be cyclic, so the fixpoint is approached by monotone iteration: any
// node still rising after n passes is pinned to +Inf (its chain mass
// diverges, or finiteness cannot cheaply be proven), and +Inf — a fixpoint
// of the recurrence — then propagates to every dependent node.
func pathMass(sk *sketch.Sketch, steps []query.Step, tv []float64) []float64 {
	n := len(sk.Nodes)
	w := tv
	for si := len(steps) - 1; si >= 0; si-- {
		step := &steps[si]
		next := make([]float64, n)
		if step.Axis == query.Child {
			for u := 0; u < n; u++ {
				un := sk.Nodes[u]
				if un == nil {
					continue
				}
				var s float64
				for _, e := range un.Edges {
					c := sk.Nodes[e.Child]
					if c == nil || c.Label != step.Label || e.Avg <= 0 {
						continue
					}
					s += e.Avg * w[e.Child]
				}
				next[u] = s
			}
			w = next
			continue
		}
		// Descendant: W[u] = sum over edges u->c of
		// Avg * ([label(c) = L] * w[c] + W[c]).
		relax := func(pin bool) bool {
			changed := false
			for u := n - 1; u >= 0; u-- {
				un := sk.Nodes[u]
				if un == nil {
					continue
				}
				var s float64
				for _, e := range un.Edges {
					c := sk.Nodes[e.Child]
					if c == nil || e.Avg <= 0 {
						continue
					}
					t := next[e.Child]
					if c.Label == step.Label {
						t += w[e.Child]
					}
					if t > 0 {
						s += e.Avg * t
					}
				}
				if s > next[u] {
					if pin {
						next[u] = math.Inf(1)
					} else {
						next[u] = s
					}
					changed = true
				}
			}
			return changed
		}
		for pass := 0; relax(pass >= n); pass++ {
		}
		w = next
	}
	return w
}
