package eval

import (
	"context"
	"math"
	"slices"

	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
)

// Options configures approximate evaluation.
type Options struct {
	// MaxEmbeddings caps the number of synopsis-path embeddings enumerated
	// per path expression; beyond it the result is truncated (recorded in
	// Result.Truncated). Default 10000.
	MaxEmbeddings int
	// Limit selects streaming top-k result emission (see topk.go). 0 keeps
	// the batch evaluation path. A positive value expands at most Limit
	// result nodes best-first (highest estimated answer-mass contribution
	// first) and reports the truncation in Result.TopK, including an upper
	// bound on the answer mass left unexpanded. A negative value streams
	// without a node budget: the expansion runs to exhaustion (or to the
	// context deadline) and the final Result is bit-identical to the batch
	// path, with Result.TopK attached.
	Limit int
	// PaperMode reverts evaluation to the paper's Figures 7 and 8
	// verbatim, switching off two refinements that are otherwise on:
	//
	//   - required-edge conditioning (see conditionOnRequired);
	//   - the two-moment existence estimator for branching predicates
	//     (see branchSel), falling back to inclusion-exclusion over raw
	//     average counts (Figure 8, line 11).
	//
	// Both refinements are the identity on count-stable synopses; the
	// worked example of the paper's Example 4.1 is reproduced exactly
	// with PaperMode set.
	PaperMode bool
	// Metrics receives the evaluation's observability metrics (the
	// eval.approx.* namespace). Nil selects the process-wide obs.Default
	// registry.
	Metrics *obs.Registry
}

// maxEmbeddingsCap is the largest MaxEmbeddings honoured. Enumeration
// work is allowed 64 steps per embedding, and a larger cap would overflow
// that allowance to a non-positive one that truncates every enumeration at
// its first step.
const maxEmbeddingsCap = math.MaxInt / 64

func (o Options) withDefaults() Options {
	if o.MaxEmbeddings <= 0 {
		o.MaxEmbeddings = 10000
	}
	o.MaxEmbeddings = min(o.MaxEmbeddings, maxEmbeddingsCap)
	return o
}

// Approx runs the EvalQuery algorithm (Figure 7): it processes the twig
// query q over the TreeSketch and produces a Result synopsis summarizing
// the approximate nesting tree. On a count-stable synopsis the result is
// exact (Section 4.3).
func Approx(sk *sketch.Sketch, q *query.Query, opts Options) *Result {
	return ApproxContext(context.Background(), sk, q, opts)
}

// ApproxContext is Approx with request-scoped telemetry: when ctx carries an
// obs.Trace (obs.ContextWithTrace), the evaluation records its plan, memo
// (embedding enumeration), and emit (prune/condition/count) phases as spans
// on that trace, and flushes its per-query counters onto it. An untraced
// context costs one context lookup; the phase spans are inert and read no
// clocks, leaving the hot enumeration loops untouched.
func ApproxContext(ctx context.Context, sk *sketch.Sketch, q *query.Query, opts Options) *Result {
	return newApproxer(ctx, sk, q, opts).eval(ctx)
}

// CountResult is the answer of a count-only evaluation: the Section 4.4
// selectivity of the result synopsis TS_Q and its size, without TS_Q.
type CountResult struct {
	// Selectivity equals the batch Result's Selectivity() bit for bit.
	Selectivity float64
	// Nodes is the number of result-synopsis nodes, len(Result.Nodes).
	Nodes int
	// Empty, Truncated and Canceled are the batch Result's flags.
	Empty, Truncated, Canceled bool
}

// Count is the count-only evaluation: the batch path of Approx up to the
// finished answer graph (grow, prune, conditioning), then the Section 4.4
// pass directly over the evaluator's working memory, so neither the extent
// counts nor the answer synopsis are built. Options.Limit is ignored: a
// count is always the batch answer.
func Count(sk *sketch.Sketch, q *query.Query, opts Options) CountResult {
	return CountContext(context.Background(), sk, q, opts)
}

// CountContext is Count with ApproxContext's cancellation and telemetry:
// it reports the same eval.approx.* metrics, spans and trace counters as
// the batch path. Once the scratch pool is warm it allocates nothing.
func CountContext(ctx context.Context, sk *sketch.Sketch, q *query.Query, opts Options) CountResult {
	_, c := newApproxer(ctx, sk, q, opts).batch(ctx, false)
	return c
}

// newApproxer builds the evaluation state shared by the batch and the
// streaming top-k paths, recording the plan phase (query-variable
// numbering) as a span on the request trace. The approxer lives in a
// pooled approxScratch, with the evaluation's working memory; the path
// that runs the evaluation (batch or topK) gives the scratch back last,
// after which neither the approxer nor the scratch may be read.
func newApproxer(ctx context.Context, sk *sketch.Sketch, q *query.Query, opts Options) *approxer {
	reg := obs.Or(opts.Metrics)
	tr := obs.TraceFrom(ctx)
	ps := tr.StartSpan("eval.plan")
	sc := takeScratch(q, len(sk.Nodes))
	a := &sc.a
	*a = approxer{
		tr:           tr,
		sk:           sk,
		q:            q,
		sc:           sc,
		opts:         opts.withDefaults(),
		conditioning: !opts.PaperMode,
		reg:          reg,
		mEmbeddings:  reg.Counter("eval.approx.embeddings"),
		mEmbedWork:   reg.Counter("eval.approx.embed_steps"),
		mSelHits:     reg.Counter("eval.approx.selmemo.hits"),
		mSelMisses:   reg.Counter("eval.approx.selmemo.misses"),
		hFanout:      reg.Histogram("eval.approx.fanout"),
	}
	ps.End()
	return a
}

// release gives the scratch, and with it the approxer itself, back to the
// pool once the evaluation is over.
func (a *approxer) release() {
	a.sc.release()
}

// eval runs the batch evaluation, or the streaming top-k one (topk.go) when
// Options.Limit is set.
func (a *approxer) eval(ctx context.Context) *Result {
	if a.opts.Limit != 0 {
		return a.topK(ctx)
	}
	res, _ := a.batch(ctx, true)
	return res
}

// batch is the all-or-nothing evaluation path: a half-built memo phase is
// not a usable synopsis, so the enumeration polls ctx under the tickCtx
// work budget and aborts via the ctxCanceled panic sentinel, translated
// here into a Canceled answer. With materialize it returns the answer
// synopsis, otherwise only the count, whose Selectivity it then fills; the
// count's size and flags are set either way.
func (a *approxer) batch(ctx context.Context, materialize bool) (res *Result, c CountResult) {
	a.ctx = ctx
	span := a.reg.StartSpan("eval.approx.query")
	a.reg.Counter("eval.approx.queries").Inc()
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(ctxCanceled); !ok {
				panic(p)
			}
			c = CountResult{Canceled: true}
			if materialize {
				res = &Result{Canceled: true}
			}
			a.reg.Counter("eval.approx.canceled").Inc()
		}
		// Canceled runs record the time they burned before aborting.
		span.End()
		a.flush(c.Nodes, c.Empty, c.Truncated)
		a.release()
	}()
	// The embedding search plus selectivity memoization is the trace's
	// "memo" phase; everything that shapes the answer synopsis afterwards
	// is its "emit" phase.
	ms := a.tr.StartSpan("eval.memo")
	a.grow(a.edgeTerms)
	ms.End()
	es := a.tr.StartSpan("eval.emit")
	found := a.finish(true)
	c = CountResult{Empty: !found, Truncated: a.truncated}
	if found {
		c.Nodes = len(a.sc.nodes)
	}
	if materialize {
		res = a.answer(found)
	} else if found {
		c.Selectivity = a.selectivity()
	}
	es.End()
	return res, c
}

// flush drains the locally accumulated counters into the registry and the
// request trace once the answer is final: it has the given number of
// result nodes and flags.
func (a *approxer) flush(nodes int, empty, truncated bool) {
	reg, tr := a.reg, a.tr
	if a.prunes > 0 {
		reg.Counter("eval.approx.embed_prunes").Add(a.prunes)
	}
	if a.canHits > 0 {
		reg.Counter("eval.approx.embed_memo_hits").Add(a.canHits)
	}
	if tr != nil {
		tr.AddCounter("approx_embed_prunes", a.prunes)
		tr.AddCounter("approx_embed_memo_hits", a.canHits)
		tr.AddCounter("approx_result_nodes", int64(nodes))
		if truncated {
			tr.AddCounter("approx_truncated", 1)
		}
	}
	if empty {
		reg.Counter("eval.approx.empty").Inc()
	}
	if truncated {
		reg.Counter("eval.approx.truncated").Inc()
	}
	reg.Histogram("eval.approx.result_nodes").Observe(float64(nodes))
	// Per-query-node fanout: how many synopsis result classes each query
	// variable bound. The spread of this distribution is what drives
	// embedding-enumeration cost.
	for _, ids := range a.sc.bind[:len(a.sc.qnodes)] {
		a.hFanout.Observe(float64(len(ids)))
	}
}

type approxer struct {
	tr *obs.Trace // request trace; nil (inert) for untraced callers

	// ctxPoll is armed only on the batch path, which sets its ctx; work is
	// charged per synopsis edge walked, memo slot filled and term folded.
	// The top-k path deliberately leaves ctx nil (every poll then a single
	// predictable branch): it polls ctx.Err() between expansions and
	// answers with an honest partial result instead of aborting, and its
	// per-expansion work is already pool-bounded.
	ctxPoll

	sk   *sketch.Sketch
	q    *query.Query
	sc   *approxScratch // the evaluation's working memory, which holds this approxer (scratch.go)
	opts Options

	// conditioning selects conditionOnRequired, on unless PaperMode; the
	// test suite also switches it off alone. noPrune and ref are test-only
	// and zero in production. noPrune keeps the raw result graph (no
	// pruning, no conditioning), the regime the top-k error bound is
	// defined in. ref replaces enumFast with the reference enumeration the
	// differential and fuzz tests compare the fast path against; it pushes
	// the same flat records (see walk) for every path. Tests set them
	// between newApproxer and eval.
	conditioning bool
	noPrune      bool
	ref          func(from int, p *query.Path, needExist bool)

	truncated bool

	// Enumeration pool for the finite-budget streaming path: when poolOn,
	// every enumeration draws its embedding budget and work allowance from
	// this shared pool instead of taking a fresh per-call MaxEmbeddings
	// allowance, so a node budget implies a bound on total enumeration work.
	// A call that completes without draining the pool produces exactly the
	// per-call result (enumeration is deterministic and budgets only gate
	// continuation), which is what keeps undrained streaming runs
	// bit-identical to the batch path.
	poolOn     bool
	poolBudget int
	poolWork   int

	// pruneExempt marks result nodes (by pre-prune ID) the pruning pass must
	// not drop for missing required children: the top-k path sets it for
	// unexpanded frontier nodes, whose required subtrees were never searched.
	// Nil on the batch path.
	pruneExempt []bool

	// Locally accumulated fast-path counters, flushed once per query.
	prunes  int64
	canHits int64

	// Metric handles, resolved once per query so hot paths pay only an
	// atomic add.
	reg         *obs.Registry
	mEmbeddings *obs.Counter
	mEmbedWork  *obs.Counter
	mSelHits    *obs.Counter
	mSelMisses  *obs.Counter
	hFanout     *obs.Histogram
}

type resKey struct {
	src int
	q   int
}

type selKey struct {
	src  int
	pred *query.Path
}

// grow starts the answer graph at the synopsis root and extends it in
// query-variable pre-order — parents first, so bind[q] is complete when q's
// edges are processed (Figure 7, lines 4-13) — folding in the per-terminal
// sums terms supplies for every bound result node and outgoing query edge.
// The batch path enumerates them; the top-k replay reads the recorded ones.
//
// A result node's outgoing edges are all added while it is processed, so
// they form one run of the scratch's edge list. Every (parent, child) pair
// is added once: terms are per distinct terminal, and each query edge has
// a child variable of its own, so Figure 7's line-12 sum over synopsis
// paths is already folded into the term.
func (a *approxer) grow(terms func(src int, edge *query.Edge) []termK) {
	sc := a.sc
	a.addResultNode(a.sk.Root, 0)
	for qi, qn := range sc.qnodes {
		for _, uQ := range sc.bind[qi] {
			src := int(sc.nodes[uQ].src)
			lo := int32(len(sc.edges))
			for j, edge := range qn.Edges {
				a.checkCtx()
				ci := sc.child(qi, j)
				for _, tk := range terms(src, edge) {
					a.tickCtx(1)
					vQ := a.addResultNode(tk.term, ci)
					sc.edges = append(sc.edges, REdge{Child: vQ, K: tk.k})
				}
			}
			sc.nodes[uQ].lo, sc.nodes[uQ].hi = lo, int32(len(sc.edges))
		}
	}
}

// addResultNode returns the result node of (synopsis node src, variable
// qi), creating it on first sight. The root is node 0.
func (a *approxer) addResultNode(src, qi int) int {
	sc := a.sc
	k := resKey{src, qi}
	if id, ok := sc.resIndex[k]; ok {
		return int(id)
	}
	id := int32(len(sc.nodes))
	sc.nodes = append(sc.nodes, wnode{src: int32(src), qi: int32(qi)})
	sc.resIndex[k] = id
	sc.bind[qi] = append(sc.bind[qi], id)
	return int(id)
}

// finish shapes the grown graph into the answer graph: it reports the
// empty answer of Figure 7 line 15 when a required variable has no
// bindings anywhere (checked only when searched, i.e. the whole graph was
// explored) or pruning drops the root, and otherwise prunes and conditions
// the graph and reports true.
func (a *approxer) finish(searched bool) bool {
	sc := a.sc
	if searched {
		for qi, qn := range sc.qnodes {
			for j, edge := range qn.Edges {
				if !edge.Optional && len(sc.bind[sc.child(qi, j)]) == 0 {
					return false
				}
			}
		}
	}
	if !a.noPrune {
		if !a.prune() {
			return false
		}
		if a.conditioning {
			a.conditionOnRequired()
		}
	}
	return true
}

// answer is the answer synopsis of a finished graph: the empty answer when
// finish found none, else the graph materialized by result.
func (a *approxer) answer(found bool) *Result {
	if !found {
		return &Result{Empty: true, Truncated: a.truncated}
	}
	return a.result()
}

// result materializes the working graph as the answer synopsis, sized
// once: one array of nodes, one of node pointers, and one of edges. It
// also derives the estimated extent sizes, Count(root) = 1 and Count(v) =
// sum over incoming edges of Count(u) * k(u, v): grow creates every node of
// a variable before any node of its child variables, and prune keeps that
// order, so a pass in node order has settled every node's count before it
// reaches the node's outgoing edges, and adds each node's incoming terms
// in its parents' creation order.
func (a *approxer) result() *Result {
	sc := a.sc
	ne := 0
	for _, nd := range sc.nodes {
		ne += int(nd.hi - nd.lo)
	}
	nodes := make([]RNode, len(sc.nodes))
	ptrs := make([]*RNode, len(sc.nodes))
	edges := make([]REdge, ne)
	nodes[0].Count = 1
	for i, nd := range sc.nodes {
		rn := &nodes[i]
		rn.ID, rn.Var, rn.VarID = i, sc.qnodes[nd.qi].Var, int(nd.qi)
		rn.Label, rn.Src = a.sk.Nodes[nd.src].Label, int(nd.src)
		if m := copy(edges, sc.edges[nd.lo:nd.hi]); m > 0 {
			rn.Edges, edges = edges[:m:m], edges[m:]
		}
		for _, e := range rn.Edges {
			nodes[e.Child].Count += rn.Count * e.K
		}
		ptrs[i] = rn
	}
	return &Result{Nodes: ptrs, Root: 0, Truncated: a.truncated, VarOptional: slices.Clone(sc.optional)}
}

// selectivity is the Section 4.4 estimate of the finished graph, read
// straight from the working memory: Result.Selectivity's pass, fed by the
// scratch instead of a materialized answer.
func (a *approxer) selectivity() float64 {
	sc := a.sc
	nv := len(sc.qnodes)
	return selectivity(sc, 0, sc.optional, resize(&sc.tuples, len(sc.nodes)),
		resize(&sc.varSum, nv), resize(&sc.varSeen, nv), resize(&sc.vars, nv))
}

// conditionOnRequired refines the result counts for required (solid) child
// edges, which are existential filters on their parent bindings: an
// element of uQ belongs to the answer only if it has at least one
// descendant for every required child variable. The surviving fraction of
// a group g is estimated as
//
//	s_g = min(1, sum over result nodes v of group g of k_v),
//
// i.e. the result classes of one variable are treated as mutually
// exclusive alternatives rather than independent events: a merged
// cluster's single child per element is typically *spread* across many
// small-k result classes (one per surviving stable shape), and
// inclusion-exclusion would wrongly conclude that many elements have no
// child at all. Incoming edge counts of uQ scale by f = prod s_g, and the
// group's outgoing counts rescale to k/s_g (the conditional average among
// survivors), which preserves the selectivity estimate and is the
// identity on count-stable synopses (there s_g is always 0 or 1).
//
// A result node's edges all lead to child variables of its own variable,
// so its required groups are exactly its edges into non-optional
// variables.
func (a *approxer) conditionOnRequired() {
	sc := a.sc
	f := resize(&sc.factor, len(sc.nodes))
	// Per child variable of the node at hand: the group's summed k, then
	// its survival fraction; state 1 marks a group seen, 2 one that
	// rescales.
	sum := resize(&sc.varSum, len(sc.qnodes))
	state := resize(&sc.varState, len(sc.qnodes))
	for i, nd := range sc.nodes {
		f[i] = 1
		if !sc.solid[nd.qi] {
			continue
		}
		qn := sc.qnodes[nd.qi]
		run := sc.edges[nd.lo:nd.hi]
		for _, e := range run {
			if cv := sc.nodes[e.Child].qi; !sc.optional[cv] {
				state[cv] = 1
				sum[cv] += e.K
			}
		}
		// Drain in ascending child-variable order (the order of qn's
		// edges): the survival factors multiply into f[i], and the float
		// product must not depend on edge order.
		vars := sc.childVar[sc.edgeLo[nd.qi]:][:len(qn.Edges)]
		for _, cv := range vars {
			if state[cv] == 0 || sum[cv] >= 1 {
				continue
			}
			s := sum[cv]
			if s <= 0 {
				s = 1e-9
			}
			sum[cv], state[cv] = s, 2
			f[i] *= s
		}
		// Outgoing required-group counts become conditional averages. The
		// root is left unconditioned (its count stays 1).
		if i != 0 {
			for ei := range run {
				if cv := sc.nodes[run[ei].Child].qi; state[cv] == 2 {
					run[ei].K /= sum[cv]
				}
			}
		}
		for _, cv := range vars {
			sum[cv], state[cv] = 0, 0
		}
	}
	// Incoming counts scale by the target's survival factor; the root has
	// no incoming edge.
	for _, nd := range sc.nodes {
		for ei := nd.lo; ei < nd.hi; ei++ {
			if c := sc.edges[ei].Child; c != 0 {
				sc.edges[ei].K *= f[c]
			}
		}
	}
}

// prune drops result nodes for which some required child variable has no
// surviving bindings, processing variables bottom-up, and renumbers the
// survivors densely in their creation order. Returns false when the root
// itself is pruned (empty answer).
func (a *approxer) prune() bool {
	sc := a.sc
	n := len(sc.nodes)
	keep := resize(&sc.keep, n)
	for i := range keep {
		keep[i] = true
	}
	// Reverse pre-order: children before parents.
	for qi := len(sc.qnodes) - 1; qi >= 0; qi-- {
		if !sc.solid[qi] {
			continue
		}
		qn := sc.qnodes[qi]
		for _, uQ := range sc.bind[qi] {
			if !keep[uQ] {
				continue
			}
			if a.pruneExempt != nil && a.pruneExempt[uQ] {
				continue
			}
			run := sc.edges[sc.nodes[uQ].lo:sc.nodes[uQ].hi]
			for j, e := range qn.Edges {
				if e.Optional {
					continue
				}
				ci := int32(sc.child(qi, j))
				found := false
				for _, re := range run {
					if sc.nodes[re.Child].qi == ci && keep[re.Child] && re.K > 0 {
						found = true
						break
					}
				}
				if !found {
					keep[uQ] = false
					break
				}
			}
		}
	}
	if !keep[0] {
		return false
	}
	// Drop pruned nodes and edges to them, renumbering densely.
	remap := resize(&sc.remap, n)
	kept := 0
	for i := range n {
		if !keep[i] {
			remap[i] = -1
			continue
		}
		remap[i] = int32(kept)
		sc.nodes[kept] = sc.nodes[i]
		kept++
	}
	if dropped := n - kept; dropped > 0 {
		a.reg.Counter("eval.approx.prune_dropped").Add(int64(dropped))
	}
	sc.nodes = sc.nodes[:kept]
	for i := range sc.nodes {
		nd := &sc.nodes[i]
		w := nd.lo
		for k := nd.lo; k < nd.hi; k++ {
			if c := remap[sc.edges[k].Child]; c >= 0 {
				sc.edges[w] = REdge{Child: int(c), K: sc.edges[k].K}
				w++
			}
		}
		nd.hi = w
	}
	return true
}

// termK is one terminal synopsis node of an edge enumeration with its
// accumulated descendant count.
type termK struct {
	term int
	k    float64
}

// edgeTerms enumerates edge.Path from synopsis node src and aggregates the
// per-embedding counts per terminal synopsis node, in sorted terminal order
// so result-node IDs (and everything downstream: expansion order, float
// accumulation) are deterministic. The output is a pure function of
// (src, edge) for a fixed synopsis and options — per-call budgets and dedup
// state reset per enumeration, and the selectivity memo caches values only —
// which is what lets the top-k path replay recorded edge outputs in batch
// order and reproduce the batch result bit-identically. The returned slice
// is scratch memory, valid until the next accumulation drains.
func (a *approxer) edgeTerms(src int, edge *query.Edge) []termK {
	sc := a.sc
	a.walk(src, edge.Path, false, func(term int, k float64) {
		if k > 0 {
			sc.addTerm(term, k)
		}
	})
	if len(sc.touched) == 0 {
		return nil
	}
	return sc.drainTerms()
}

// walk enumerates p from synopsis node from and calls visit once per
// distinct embedding with its terminal node and its EvalEmbed value (the
// existence estimate when needExist). Predicate-free paths stream from
// enumFast and keep nothing per embedding. A path with step predicates
// needs the best step assignment of each distinct node path, so enumFast
// pushes one flat record per node path onto the scratch's record stack;
// walk then scores the records in emission order — the nested branchSel
// walks push their own records above these and truncate back — and only
// then visits them. At most one accumulation (edgeTerms, or a PaperMode
// branchSel) therefore receives visits at any time, which is what lets
// them share one dense per-terminal sum.
func (a *approxer) walk(from int, p *query.Path, needExist bool, visit func(term int, v float64)) {
	preds := hasPreds(p.Steps)
	if a.ref == nil && !preds {
		a.enumFast(from, p, needExist, visit)
		return
	}
	sc := a.sc
	lo, rowsLo := len(sc.recs), len(sc.rows)
	if a.ref != nil {
		a.ref(from, p, needExist)
	} else {
		a.enumFast(from, p, needExist, nil)
	}
	hi := len(sc.recs)
	if preds {
		for i := lo; i < hi; i++ {
			a.tickCtx(1)
			sel := a.bestAssignmentSel(p.Steps, i)
			sc.recs[i].prod *= sel
		}
	}
	for i := lo; i < hi; i++ {
		visit(int(sc.recs[i].term), sc.recs[i].prod)
	}
	sc.recs, sc.rows = sc.recs[:lo], sc.rows[:rowsLo]
}

// hasPreds reports whether some step carries a branching predicate.
func hasPreds(steps []query.Step) bool {
	for si := range steps {
		if len(steps[si].Preds) > 0 {
			return true
		}
	}
	return false
}

// enumFast is the embedding enumeration: a DFS over the synopsis that
// (1) refuses to start when a step label is absent from the synopsis
// altogether, (2) prunes any branch whose can-complete memo proves the
// remaining steps cannot all be placed below it — so every surviving
// branch emits at least one embedding — and (3) accumulates the
// per-embedding count (or existence) product hop by hop during the walk,
// instead of re-walking each embedding. Emission order, and therefore all
// downstream floating-point accumulation, is identical to the test suite's
// reference enumeration whenever neither truncates.
//
// With a stream, each distinct node path calls stream(terminal, product)
// and nothing is kept: duplicate node paths carry no information a
// predicate-free caller can use (their extra step assignments only matter
// to bestAssignmentSel), so they are dropped after the budget accounting.
// Without one, each distinct node path is pushed as a record, and a
// duplicate chains its step assignment onto the record of its first
// emission (see walk).
func (a *approxer) enumFast(from int, p *query.Path, needExist bool, stream func(term int, prod float64)) {
	a.checkCtx()
	steps := p.Steps
	descSteps := 0
	for si := range steps {
		if !a.sk.HasLabel(steps[si].Label) {
			a.prunes++
			return
		}
		if steps[si].Axis == query.Descendant {
			descSteps++
		}
	}
	sc := a.sc
	en := enumerator{
		a:         a,
		sc:        sc,
		steps:     steps,
		tab:       a.canTab(p),
		needExist: needExist,
		dedup:     descSteps >= 2,
		budget:    a.opts.MaxEmbeddings,
		work:      64 * a.opts.MaxEmbeddings,
		nextID:    1,
		base:      len(sc.recs),
		stream:    stream,
	}
	// One node path can be emitted under several step assignments only
	// with two or more Descendant steps: the emitted sequence records every
	// traversed synopsis node, so a walk's length pins each Child step and
	// a single Descendant step to one position. Such duplicates are
	// detected with an incremental path trie: every pushed (prefix, node)
	// pair gets a dense integer ID, so the whole current stack is
	// identified by one int — no per-emission key strings.
	if en.dedup {
		sc.trie.reset()
	}
	if a.poolOn {
		en.budget, en.work = a.poolBudget, a.poolWork
	}
	startWork := en.work
	sc.idStack, sc.landing = sc.idStack[:0], sc.landing[:0]
	en.rec(from, 0, 1)
	if a.poolOn {
		a.poolBudget, a.poolWork = en.budget, en.work
	}
	a.mEmbeddings.Add(int64(en.emitted))
	a.mEmbedWork.Add(int64(startWork - en.work))
}

// enumerator is the DFS state of one enumFast call. Its stacks live in the
// scratch: sc.idStack holds the path IDs below the current node (when
// deduplicating) and sc.landing the synopsis node each placed step landed
// on, which is the step assignment a record keeps.
type enumerator struct {
	a         *approxer
	sc        *approxScratch
	steps     []query.Step
	tab       canTable
	needExist bool
	dedup     bool
	budget    int
	work      int
	emitted   int
	nextID    int32
	pathID    int32
	base      int // the first record of this enumeration
	stream    func(term int, prod float64)
}

func (en *enumerator) push(node int) {
	if en.dedup {
		key := uint64(uint32(en.pathID))<<32 | uint64(uint32(node))
		en.sc.idStack = append(en.sc.idStack, en.pathID)
		en.pathID = en.sc.trie.id(key, &en.nextID)
	}
}

func (en *enumerator) pop() {
	if en.dedup {
		st := en.sc.idStack
		en.pathID = st[len(st)-1]
		en.sc.idStack = st[:len(st)-1]
	}
}

func (en *enumerator) emit(term int, prod float64) {
	sc := en.sc
	if en.dedup {
		if prev, dup := sc.trie.markEmitted(en.pathID, en.emitted); dup {
			if en.stream == nil {
				sc.addAssignment(en.base+int(prev), sc.landing)
			}
			return
		}
	}
	en.emitted++
	if en.stream != nil {
		en.stream(term, prod)
		return
	}
	sc.pushRec(term, prod, sc.landing)
}

// extend advances the accumulated product across one synopsis edge, in
// path order.
func (en *enumerator) extend(prod float64, e *sketch.Edge, parent int) float64 {
	if en.needExist {
		return prod * edgeExistence(*e, en.a.sk.Nodes[parent].Count)
	}
	return prod * e.Avg
}

func (en *enumerator) rec(cur, si int, prod float64) {
	a := en.a
	if en.budget <= 0 || en.work <= 0 {
		a.truncated = true
		return
	}
	if si == len(en.steps) {
		en.budget--
		en.emit(cur, prod)
		return
	}
	step := &en.steps[si]
	if step.Axis != query.Child {
		en.desc(cur, si, prod)
		return
	}
	edges := a.sk.Nodes[cur].Edges
	for ei := range edges {
		e := &edges[ei]
		if a.sk.Nodes[e.Child].Label != step.Label {
			continue
		}
		if !a.canRec(en.tab, en.steps, e.Child, si+1) {
			a.prunes++
			continue
		}
		en.work--
		a.tickCtx(1)
		en.push(e.Child)
		en.sc.landing = append(en.sc.landing, int32(e.Child))
		en.rec(e.Child, si+1, en.extend(prod, e, cur))
		en.sc.landing = en.sc.landing[:len(en.sc.landing)-1]
		en.pop()
	}
}

// desc explores downward paths for a Descendant step: a matching child
// that can complete the remaining steps is a landing point, and the
// search continues deeper wherever the memo proves more landings exist.
func (en *enumerator) desc(cur, si int, prod float64) {
	a := en.a
	if en.budget <= 0 {
		a.truncated = true
		return
	}
	step := &en.steps[si]
	edges := a.sk.Nodes[cur].Edges
	for ei := range edges {
		if en.work <= 0 {
			a.truncated = true
			return
		}
		e := &edges[ei]
		land := a.sk.Nodes[e.Child].Label == step.Label && a.canRec(en.tab, en.steps, e.Child, si+1)
		deeper := a.canDesc(en.tab, en.steps, e.Child, si)
		if !land && !deeper {
			a.prunes++
			continue
		}
		en.work--
		a.tickCtx(1)
		next := en.extend(prod, e, cur)
		en.push(e.Child)
		if land {
			en.sc.landing = append(en.sc.landing, int32(e.Child))
			en.rec(e.Child, si+1, next)
			en.sc.landing = en.sc.landing[:len(en.sc.landing)-1]
		}
		if deeper {
			en.desc(e.Child, si, next)
		}
		en.pop()
	}
}

// bestAssignmentSel implements the predicate half of EvalEmbed (Figure 8):
// the embedding's value is its hop product, accumulated during
// enumeration, scaled by the selectivity of each step's branching
// predicates. With several step assignments on the same node path (record
// ri's chain of rows), the best (highest selectivity) assignment is used —
// an element matches if any assignment's predicates hold. Assignments are
// scored in emission order, and a product that reaches 0 skips the rest of
// its assignment, so branchSel runs on exactly the (node, predicate) pairs,
// in exactly the order, of a per-embedding evaluation. The rows are re-read
// after every branchSel: its nested walk may grow them.
func (a *approxer) bestAssignmentSel(steps []query.Step, ri int) float64 {
	sc := a.sc
	best := 0.0
	for r := int(sc.recs[ri].head); r >= 0; r = int(sc.rows[r]) {
		a.checkCtx()
		sel := 1.0
		for si := range steps {
			at := int(sc.rows[r+1+si])
			for _, pred := range steps[si].Preds {
				sel *= a.branchSel(at, pred)
				if sel == 0 {
					break
				}
			}
			if sel == 0 {
				break
			}
		}
		if sel > best {
			best = sel
		}
	}
	return best
}

// branchSel estimates the fraction of elements of synopsis node from that
// have at least one descendant along pred (Figure 8, lines 2-13).
//
// In PaperMode, counts per terminal node are summed across embeddings; a
// count >= 1 certifies the predicate for the whole extent, otherwise
// counts are combined as independent probabilities by inclusion-exclusion
// (Figure 8, line 11).
//
// In the default refined mode the existence probability per embedding is
// the product over hops of the per-edge two-moment estimate
//
//	P(c >= 1) ~ Sum^2 / (Count * SumSq),
//
// which the Cauchy-Schwarz inequality bounds by 1 and which is exact
// whenever the per-element child count takes at most two values {0, m} —
// the common shape after merging (a fraction of the cluster has the
// sub-structure). Embeddings combine by min(1, sum): distinct synopsis
// paths carve disjoint descendant sets out of each element's subtree, so
// their existence events are treated as mutually exclusive rather than
// independent. Both rules coincide (and are exact) on count-stable
// synopses.
func (a *approxer) branchSel(from int, pred *query.Path) float64 {
	sc := a.sc
	k := selKey{from, pred}
	if s, ok := sc.selMemo[k]; ok {
		a.mSelHits.Inc()
		return s
	}
	a.mSelMisses.Inc()
	a.checkCtx()
	var s float64
	if !a.opts.PaperMode {
		a.walk(from, pred, true, sc.addExistence)
		s = min(sc.existSum, 1)
		sc.existSum = 0
	} else {
		a.walk(from, pred, false, sc.addTerm)
		// Sorted drain: the complement product is a float accumulation
		// and must not follow emission order.
		prod := 1.0
		certain := false
		terms := sc.drainTerms()
		for _, tk := range terms {
			if tk.k >= 1 {
				certain = true
				break
			}
			prod *= 1 - tk.k
		}
		switch {
		case certain:
			s = 1
		case len(terms) > 0:
			s = 1 - prod
		}
	}
	sc.selMemo[k] = s
	return s
}

// edgeExistence estimates P(child count >= 1) for one synopsis edge: when
// the exact minimum per-element count certifies universal presence the
// probability is 1; otherwise the two-moment (Paley-Zygmund) estimate
// applies, which is exact for {0,m}-valued counts.
func edgeExistence(e sketch.Edge, count int) float64 {
	if e.MinK >= 1 {
		return 1
	}
	if e.SumSq <= 0 {
		return 0
	}
	p := e.Sum * e.Sum / (float64(count) * e.SumSq)
	if p > 1 {
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}
