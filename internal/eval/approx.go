package eval

import (
	"context"
	"sort"

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

func (o Options) withDefaults() Options {
	if o.MaxEmbeddings <= 0 {
		o.MaxEmbeddings = 10000
	}
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

// newApproxer builds the evaluation state shared by the batch and the
// streaming top-k paths, recording the plan phase (query-variable
// numbering) as a span on the request trace.
func newApproxer(ctx context.Context, sk *sketch.Sketch, q *query.Query, opts Options) *approxer {
	reg := obs.Or(opts.Metrics)
	tr := obs.TraceFrom(ctx)
	ps := tr.StartSpan("eval.plan")
	a := &approxer{
		tr:           tr,
		sk:           sk,
		q:            q,
		qnodes:       q.Vars(),
		qidx:         make(map[*query.Node]int),
		opts:         opts.withDefaults(),
		conditioning: !opts.PaperMode,
		selMemo:      make(map[selKey]float64),
		resIndex:     make(map[resKey]int),
		reg:          reg,
		mEmbeddings:  reg.Counter("eval.approx.embeddings"),
		mEmbedWork:   reg.Counter("eval.approx.embed_steps"),
		mSelHits:     reg.Counter("eval.approx.selmemo.hits"),
		mSelMisses:   reg.Counter("eval.approx.selmemo.misses"),
		hFanout:      reg.Histogram("eval.approx.fanout"),
	}
	for i, qn := range a.qnodes {
		a.qidx[qn] = i
	}
	ps.End()
	return a
}

// eval runs the batch evaluation, or the streaming top-k one (topk.go) when
// Options.Limit is set.
func (a *approxer) eval(ctx context.Context) *Result {
	if a.opts.Limit != 0 {
		return a.topK(ctx)
	}
	return a.batch(ctx)
}

// batch is the all-or-nothing evaluation path: a half-built memo phase is
// not a usable synopsis, so the enumeration polls ctx under the tickCtx
// work budget and aborts via the ctxCanceled panic sentinel, translated
// here into a Canceled result.
func (a *approxer) batch(ctx context.Context) (res *Result) {
	a.ctx = ctx
	span := a.reg.StartSpan("eval.approx.query")
	a.reg.Counter("eval.approx.queries").Inc()
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(ctxCanceled); !ok {
				panic(p)
			}
			res = &Result{Canceled: true}
			a.reg.Counter("eval.approx.canceled").Inc()
		}
		// Keep the full latency distribution alongside the phase timer so
		// snapshots can report p50/p95/p99 (see Histogram.Quantile); canceled
		// runs record the time they burned before aborting.
		a.reg.Histogram("eval.approx.latency_seconds").Observe(span.End().Seconds())
		a.flush(res)
	}()
	// The embedding search plus selectivity memoization is the trace's
	// "memo" phase; everything that shapes the answer synopsis afterwards
	// is its "emit" phase.
	ms := a.tr.StartSpan("eval.memo")
	a.grow(func(rn *RNode, edge *query.Edge) []termK {
		return a.edgeTerms(rn.Src, edge)
	})
	ms.End()
	es := a.tr.StartSpan("eval.emit")
	res = a.finish(true)
	es.End()
	return res
}

// flush drains the locally accumulated counters into the registry and the
// request trace once the result is final.
func (a *approxer) flush(res *Result) {
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
		tr.AddCounter("approx_result_nodes", int64(len(res.Nodes)))
		if res.Truncated {
			tr.AddCounter("approx_truncated", 1)
		}
	}
	if res.Empty {
		reg.Counter("eval.approx.empty").Inc()
	}
	if res.Truncated {
		reg.Counter("eval.approx.truncated").Inc()
	}
	reg.Histogram("eval.approx.result_nodes").Observe(float64(len(res.Nodes)))
	// Per-query-node fanout: how many synopsis result classes each query
	// variable bound. The spread of this distribution is what drives
	// embedding-enumeration cost.
	for _, ids := range a.bind {
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

	sk     *sketch.Sketch
	q      *query.Query
	qnodes []*query.Node
	qidx   map[*query.Node]int
	opts   Options

	// conditioning selects conditionOnRequired, on unless PaperMode; the
	// test suite also switches it off alone. noPrune and ref are test-only
	// and zero in production. noPrune keeps the raw result graph (no
	// pruning, no conditioning), the regime the top-k error bound is
	// defined in. ref replaces enumFast with the reference enumeration the
	// differential and fuzz tests compare the fast path against; every
	// path then materializes its embeddings through it. Tests set them
	// between newApproxer and eval.
	conditioning bool
	noPrune      bool
	ref          func(from int, p *query.Path, needExist bool) []embedding

	res       *Result
	resIndex  map[resKey]int // (synopsis node, query var index) -> result node
	bind      [][]int        // query var index -> result node IDs
	selMemo   map[selKey]float64
	canTabs   map[*query.Path][]int8
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

	// Reusable dedup state for enumFast (epoch-reset per enumeration): the
	// incremental path trie and the set of already-emitted path IDs.
	trie pathTrie

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

// embedding is one mapping of a path expression into the synopsis: the
// sequence of synopsis nodes traversed (one per edge, source excluded).
// The same node path can admit several assignments of location steps to
// positions (with recursive labels, //parlist//listitem embeds into a
// nested parlist chain in more than one way); stepAts records all of them.
// Counting each node path once — rather than once per assignment — matches
// XPath's set semantics: the elements along a fixed class path are matched
// if at least one step assignment exists, and elements on distinct class
// paths are distinct.
//
// prod is the product accumulated while walking the path — average
// descendant counts, or per-hop existence probabilities when the
// enumeration ran with needExist — multiplied hop by hop in path order.
type embedding struct {
	nodes   []int
	stepAts [][]int
	prod    float64
}

// grow starts the answer graph at the synopsis root and extends it in
// query-variable pre-order — parents first, so bind[q] is complete when q's
// edges are processed (Figure 7, lines 4-13) — folding in the per-terminal
// sums terms supplies for every bound result node and outgoing query edge.
// The batch path enumerates them; the top-k replay reads the recorded ones.
func (a *approxer) grow(terms func(rn *RNode, edge *query.Edge) []termK) {
	optional := make([]bool, len(a.qnodes))
	for _, qn := range a.qnodes {
		for _, e := range qn.Edges {
			if e.Optional {
				optional[a.qidx[e.Child]] = true
			}
		}
	}
	a.res = &Result{Root: 0, VarOptional: optional}
	a.bind = make([][]int, len(a.qnodes))
	a.addResultNode(a.sk.Root, 0, a.sk.Nodes[a.sk.Root].Label)
	for qi, qn := range a.qnodes {
		for _, uQ := range a.bind[qi] {
			rn := a.res.Nodes[uQ]
			for _, edge := range qn.Edges {
				a.checkCtx()
				a.applyEdgeTerms(rn, edge, terms(rn, edge))
			}
		}
	}
}

// finish shapes the grown graph into the answer synopsis: the empty answer
// of Figure 7 line 15 when a required variable has no bindings anywhere
// (checked only when searched, i.e. the whole graph was explored), then
// pruning, conditioning and the extent counts.
func (a *approxer) finish(searched bool) *Result {
	if searched {
		for _, qn := range a.qnodes {
			for _, edge := range qn.Edges {
				if !edge.Optional && len(a.bind[a.qidx[edge.Child]]) == 0 {
					return &Result{Empty: true, Truncated: a.truncated}
				}
			}
		}
	}
	if !a.noPrune {
		if !a.prune() {
			return &Result{Empty: true, Truncated: a.truncated}
		}
		if a.conditioning {
			a.conditionOnRequired()
		}
	}
	a.res.Truncated = a.truncated
	a.computeCounts()
	return a.res
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
func (a *approxer) conditionOnRequired() {
	n := len(a.res.Nodes)
	f := make([]float64, n)
	// sOf[node][childVar] = survival fraction of that required group.
	sOf := make([]map[int]float64, n)
	required := make([]map[int]bool, len(a.qnodes))
	for qi, qn := range a.qnodes {
		required[qi] = make(map[int]bool)
		for _, e := range qn.Edges {
			if !e.Optional {
				required[qi][a.qidx[e.Child]] = true
			}
		}
	}
	for i, rn := range a.res.Nodes {
		f[i] = 1
		if len(required[rn.VarID]) == 0 {
			continue
		}
		sums := make(map[int]float64) // child var -> sum of k
		for _, e := range rn.Edges {
			cv := a.res.Nodes[e.Child].VarID
			if !required[rn.VarID][cv] {
				continue
			}
			sums[cv] += e.K
		}
		// Drain in sorted child-var order: the survival factors multiply
		// into f[i], and float products must not depend on map order.
		cvs := make([]int, 0, len(sums))
		for cv := range sums {
			cvs = append(cvs, cv)
		}
		sort.Ints(cvs)
		for _, cv := range cvs {
			sum := sums[cv]
			if sum >= 1 {
				continue
			}
			s := sum
			if s <= 0 {
				s = 1e-9
			}
			if sOf[i] == nil {
				sOf[i] = make(map[int]float64)
			}
			sOf[i][cv] = s
			f[i] *= s
		}
	}
	// Apply: outgoing required-group counts become conditional averages;
	// incoming counts scale by the target's survival factor. The root has
	// no incoming edge, so it is left unconditioned (its count stays 1).
	for i, rn := range a.res.Nodes {
		for ei := range rn.Edges {
			e := &rn.Edges[ei]
			if s, ok := sOf[i][a.res.Nodes[e.Child].VarID]; ok && i != a.res.Root {
				e.K /= s
			}
			if e.Child != a.res.Root {
				e.K *= f[e.Child]
			}
		}
	}
}

func (a *approxer) addResultNode(src, qi int, label string) int {
	k := resKey{src, qi}
	if id, ok := a.resIndex[k]; ok {
		return id
	}
	id := len(a.res.Nodes)
	a.res.Nodes = append(a.res.Nodes, &RNode{
		ID:    id,
		Var:   a.qnodes[qi].Var,
		VarID: qi,
		Label: label,
		Src:   src,
	})
	a.resIndex[k] = id
	a.bind[qi] = append(a.bind[qi], id)
	return id
}

// applyEdgeTerms folds one edge's per-terminal sums into the result graph:
// every terminal becomes (or joins) a result node of the child variable, and
// the descendant counts accumulate on the parent's outgoing edges.
func (a *approxer) applyEdgeTerms(rn *RNode, edge *query.Edge, terms []termK) {
	ci := a.qidx[edge.Child]
	for _, tk := range terms {
		a.tickCtx(1)
		vQ := a.addResultNode(tk.term, ci, a.sk.Nodes[tk.term].Label)
		rn.addK(vQ, tk.k)
	}
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
// order and reproduce the batch result bit-identically.
func (a *approxer) edgeTerms(src int, edge *query.Edge) []termK {
	perTerm := make(map[int]float64)
	a.walk(src, edge.Path, false, func(term int, k float64) {
		if k > 0 {
			perTerm[term] += k
		}
	})
	if len(perTerm) == 0 {
		return nil
	}
	terms := make([]int, 0, len(perTerm))
	for v := range perTerm {
		terms = append(terms, v)
	}
	sort.Ints(terms)
	out := make([]termK, 0, len(terms))
	for _, v := range terms {
		out = append(out, termK{term: v, k: perTerm[v]})
	}
	return out
}

// walk enumerates p from synopsis node from and calls visit once per
// distinct embedding with its terminal node and its EvalEmbed value (the
// existence estimate when needExist). Predicate-free paths stream from
// enumFast and never materialize embeddings; paths with step predicates
// materialize them, because the best step assignment is chosen per node
// path.
func (a *approxer) walk(from int, p *query.Path, needExist bool, visit func(term int, v float64)) {
	var embs []embedding
	switch {
	case a.ref != nil:
		embs = a.ref(from, p, needExist)
	case !hasPreds(p.Steps):
		a.enumFast(from, p, needExist, nil, visit)
		return
	default:
		a.enumFast(from, p, needExist, &embs, nil)
	}
	for _, e := range embs {
		a.tickCtx(1)
		visit(e.nodes[len(e.nodes)-1], a.evalEmbed(p.Steps, e))
	}
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
// Exactly one of out/stream is set. With out, embeddings are materialized
// (nodes, step assignments, product). With stream, each deduplicated
// emission calls stream(terminal node, product) and nothing is retained —
// no node-path copies, no per-embedding allocation; duplicate node paths
// carry no information a predicate-free caller can use (their extra step
// assignments only matter to bestAssignmentSel), so they are dropped after
// the budget accounting.
func (a *approxer) enumFast(from int, p *query.Path, needExist bool, out *[]embedding, stream func(term int, prod float64)) {
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
	tab := a.canTab(p)
	// One node path can be emitted under several step assignments only
	// with two or more Descendant steps: the emitted sequence records every
	// traversed synopsis node, so a walk's length pins each Child step and
	// a single Descendant step to one position. Such duplicates are
	// detected with an incremental path trie: every pushed (prefix, node)
	// pair gets a dense integer ID, so the whole current stack is
	// identified by one int — no per-emission key strings. The trie maps
	// live on the approxer and are clear()ed per enumeration to keep their
	// buckets warm across a query's path expressions.
	dedup := descSteps >= 2
	var nextID int32 = 1
	var pathID int32
	var idStack []int32
	if dedup {
		a.trie.reset()
	}
	budget := a.opts.MaxEmbeddings
	work := 64 * a.opts.MaxEmbeddings
	if a.poolOn {
		budget, work = a.poolBudget, a.poolWork
	}
	startWork := work
	emitted := 0
	var nodes []int
	var stepAt []int

	push := func(node int) {
		if dedup {
			key := uint64(uint32(pathID))<<32 | uint64(uint32(node))
			idStack = append(idStack, pathID)
			pathID = a.trie.id(key, &nextID)
		}
		nodes = append(nodes, node)
	}
	pop := func() {
		if dedup {
			pathID = idStack[len(idStack)-1]
			idStack = idStack[:len(idStack)-1]
		}
		nodes = nodes[:len(nodes)-1]
	}
	emit := func(prod float64) {
		if dedup {
			if prev, dup := a.trie.markEmitted(pathID, emitted); dup {
				if out != nil {
					(*out)[prev].stepAts = append((*out)[prev].stepAts, append([]int(nil), stepAt...))
				}
				return
			}
		}
		emitted++
		if out == nil {
			stream(nodes[len(nodes)-1], prod)
			return
		}
		*out = append(*out, embedding{
			nodes:   append([]int(nil), nodes...),
			stepAts: [][]int{append([]int(nil), stepAt...)},
			prod:    prod,
		})
	}
	// extend advances the accumulated product across one synopsis edge, in
	// path order.
	extend := func(prod float64, e sketch.Edge, parent int) float64 {
		if needExist {
			return prod * edgeExistence(e, a.sk.Nodes[parent].Count)
		}
		return prod * e.Avg
	}
	var desc func(cur, si int, prod float64)
	var rec func(cur, si int, prod float64)
	rec = func(cur, si int, prod float64) {
		if budget <= 0 || work <= 0 {
			a.truncated = true
			return
		}
		if si == len(steps) {
			budget--
			emit(prod)
			return
		}
		step := &steps[si]
		if step.Axis == query.Child {
			for _, e := range a.sk.Nodes[cur].Edges {
				if a.sk.Nodes[e.Child].Label != step.Label {
					continue
				}
				if !a.canRec(tab, steps, e.Child, si+1) {
					a.prunes++
					continue
				}
				work--
				a.tickCtx(1)
				push(e.Child)
				stepAt = append(stepAt, len(nodes)-1)
				rec(e.Child, si+1, extend(prod, e, cur))
				pop()
				stepAt = stepAt[:len(stepAt)-1]
			}
			return
		}
		desc(cur, si, prod)
	}
	// desc explores downward paths for a Descendant step: a matching child
	// that can complete the remaining steps is a landing point, and the
	// search continues deeper wherever the memo proves more landings exist.
	desc = func(cur, si int, prod float64) {
		if budget <= 0 {
			a.truncated = true
			return
		}
		step := &steps[si]
		for _, e := range a.sk.Nodes[cur].Edges {
			if work <= 0 {
				a.truncated = true
				return
			}
			land := a.sk.Nodes[e.Child].Label == step.Label && a.canRec(tab, steps, e.Child, si+1)
			deeper := a.canDesc(tab, steps, e.Child, si)
			if !land && !deeper {
				a.prunes++
				continue
			}
			work--
			a.tickCtx(1)
			next := extend(prod, e, cur)
			push(e.Child)
			if land {
				stepAt = append(stepAt, len(nodes)-1)
				rec(e.Child, si+1, next)
				stepAt = stepAt[:len(stepAt)-1]
			}
			if deeper {
				desc(e.Child, si, next)
			}
			pop()
		}
	}
	rec(from, 0, 1)
	if a.poolOn {
		a.poolBudget, a.poolWork = budget, work
	}
	a.mEmbeddings.Add(int64(emitted))
	a.mEmbedWork.Add(int64(startWork - work))
}

// evalEmbed implements EvalEmbed (Figure 8): the descendant count along the
// embedding's main path is the product of the traversed average edge
// counts, accumulated during enumeration, scaled by the selectivity of each
// step's branching predicates. With several step assignments on the same
// node path, the best (highest selectivity) assignment is used — an element
// matches if any assignment's predicates hold. For an embedding enumerated
// with needExist the product is the per-hop existence probability instead,
// and the value estimates the probability that an element of the source
// has at least one descendant along this embedding.
func (a *approxer) evalEmbed(steps []query.Step, e embedding) float64 {
	return e.prod * a.bestAssignmentSel(steps, e)
}

// bestAssignmentSel returns the maximum product of branch-predicate
// selectivities over the embedding's step assignments. 1 when no step has
// predicates.
func (a *approxer) bestAssignmentSel(steps []query.Step, e embedding) float64 {
	if !hasPreds(steps) {
		return 1
	}
	best := 0.0
	for _, stepAt := range e.stepAts {
		a.checkCtx()
		sel := 1.0
		for si := range steps {
			at := e.nodes[stepAt[si]]
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
	k := selKey{from, pred}
	if s, ok := a.selMemo[k]; ok {
		a.mSelHits.Inc()
		return s
	}
	a.mSelMisses.Inc()
	a.checkCtx()
	var s float64
	if !a.opts.PaperMode {
		var sum float64
		a.walk(from, pred, true, func(_ int, p float64) {
			sum += p
		})
		if sum > 1 {
			sum = 1
		}
		s = sum
	} else {
		perTerm := make(map[int]float64)
		a.walk(from, pred, false, func(term int, k float64) {
			perTerm[term] += k
		})
		if len(perTerm) > 0 {
			// Sorted drain: the complement product is a float accumulation
			// and must not follow map iteration order.
			terms := make([]int, 0, len(perTerm))
			for term := range perTerm {
				terms = append(terms, term)
			}
			sort.Ints(terms)
			prod := 1.0
			certain := false
			for _, term := range terms {
				kl := perTerm[term]
				if kl >= 1 {
					certain = true
					break
				}
				prod *= 1 - kl
			}
			if certain {
				s = 1
			} else {
				s = 1 - prod
			}
		}
	}
	a.selMemo[k] = s
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

// prune drops result nodes for which some required child variable has no
// surviving bindings, processing variables bottom-up. Returns false when
// the root itself is pruned (empty answer).
func (a *approxer) prune() bool {
	keep := make([]bool, len(a.res.Nodes))
	for i := range keep {
		keep[i] = true
	}
	// Reverse pre-order: children before parents.
	for qi := len(a.qnodes) - 1; qi >= 0; qi-- {
		qn := a.qnodes[qi]
		required := make([]int, 0, len(qn.Edges))
		for _, e := range qn.Edges {
			if !e.Optional {
				required = append(required, a.qidx[e.Child])
			}
		}
		if len(required) == 0 {
			continue
		}
		for _, uQ := range a.bind[qi] {
			if !keep[uQ] {
				continue
			}
			if a.pruneExempt != nil && a.pruneExempt[uQ] {
				continue
			}
			rn := a.res.Nodes[uQ]
			for _, ci := range required {
				found := false
				for _, re := range rn.Edges {
					if a.res.Nodes[re.Child].VarID == ci && keep[re.Child] && re.K > 0 {
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
	if !keep[a.res.Root] {
		return false
	}
	dropped := 0
	for i := range keep {
		if !keep[i] {
			dropped++
		}
	}
	if dropped > 0 {
		a.reg.Counter("eval.approx.prune_dropped").Add(int64(dropped))
	}
	// Drop pruned nodes and edges to them, renumbering densely.
	remap := make([]int, len(a.res.Nodes))
	out := &Result{Truncated: a.res.Truncated, VarOptional: a.res.VarOptional}
	for i, rn := range a.res.Nodes {
		if keep[i] {
			remap[i] = len(out.Nodes)
			out.Nodes = append(out.Nodes, rn)
		} else {
			remap[i] = -1
		}
	}
	for _, rn := range out.Nodes {
		rn.ID = remap[rn.ID]
		kept := rn.Edges[:0]
		for _, e := range rn.Edges {
			if remap[e.Child] >= 0 {
				e.Child = remap[e.Child]
				kept = append(kept, e)
			}
		}
		rn.Edges = kept
	}
	out.Root = remap[a.res.Root]
	a.res = out
	return true
}

// computeCounts derives estimated extent sizes: Count(root) = 1 and
// Count(v) = sum over incoming edges of Count(u) * k(u,v). The result graph
// is a DAG ordered by query-variable depth, so a pass in variable pre-order
// suffices.
func (a *approxer) computeCounts() {
	order := make([]*RNode, len(a.res.Nodes))
	copy(order, a.res.Nodes)
	// Variable index increases from parent to child in the query tree;
	// result edges always go from lower to higher VarID.
	sortByVar(order)
	for _, rn := range order {
		if rn.ID == a.res.Root {
			rn.Count = 1
		}
	}
	for _, rn := range order {
		for _, e := range rn.Edges {
			a.res.Nodes[e.Child].Count += rn.Count * e.K
		}
	}
}

func sortByVar(nodes []*RNode) {
	// Insertion sort by VarID: result sets are small and almost ordered.
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j-1].VarID > nodes[j].VarID; j-- {
			nodes[j-1], nodes[j] = nodes[j], nodes[j-1]
		}
	}
}
