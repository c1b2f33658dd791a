package eval

import (
	"context"
	"fmt"
	"math"

	"treesketch/internal/esd"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/xmltree"
)

// ExactResult is the ground-truth evaluation of a twig query over a
// document: the nesting tree NT(Q) (Section 2) in lazily materializable
// form, plus the exact number of binding tuples.
type ExactResult struct {
	Empty bool
	// Tuples is the exact number of binding tuples (float64: counts are
	// products of fanouts and can exceed int64 on large documents).
	Tuples float64
	// Overflow marks that the tuple count overflowed float64 (the product
	// of fanouts exceeded ~1.8e308); Tuples is then +Inf and Err returns a
	// typed *TupleOverflowError.
	Overflow bool
	// Canceled marks that the evaluation stopped at the context deadline
	// (or cancellation) before finishing; Tuples and Empty are then
	// meaningless and the result must not be materialized. Only
	// ExactContext callers with a cancelable context can observe it.
	Canceled bool

	ev *evaluator
}

// TupleOverflowError reports that a query's exact binding-tuple count
// exceeded the float64 range.
type TupleOverflowError struct {
	// Query is the textual form of the overflowing query.
	Query string
}

func (e *TupleOverflowError) Error() string {
	return fmt.Sprintf("eval: exact tuple count of %q overflows float64", e.Query)
}

// Err returns a typed *TupleOverflowError when the tuple count overflowed,
// nil otherwise. Selectivity experiments treat +Inf counts as unusable, so
// callers that feed Tuples into further arithmetic should check this.
func (r *ExactResult) Err() error {
	if r.Overflow {
		return &TupleOverflowError{Query: r.ev.q.String()}
	}
	return nil
}

// Exact evaluates q over the indexed document and returns the true result.
// An element binds a variable only if every required (non-dashed) child
// edge of that variable has at least one valid binding beneath it; dashed
// edges (from the query's return clause) may be empty.
//
// The returned ExactResult (and its NestingTree / ESDGraph / BindingTuples
// methods) is not safe for concurrent use; distinct Exact calls on the same
// Index are.
func Exact(ix *Index, q *query.Query) *ExactResult {
	return ExactContext(context.Background(), ix, q)
}

// ExactContext is Exact with request-scoped telemetry and cancellation:
// when ctx carries an obs.Trace (obs.ContextWithTrace), the evaluation
// records its plan and memo phases as spans on that trace, and a ctx that
// expires mid-evaluation stops the match/validity recursion at the next
// periodic check (returning a result marked Canceled) instead of running
// the document to completion — so a serving deadline actually frees the
// evaluator. An untraced background context adds one context lookup and a
// counter increment per memoized call and nothing else — the phase spans
// are inert and read no clocks — so the hot path is unchanged for batch
// callers and float accumulation (hence fingerprints) is untouched.
func ExactContext(ctx context.Context, ix *Index, q *query.Query) (r *ExactResult) {
	tr := obs.TraceFrom(ctx)
	span := obs.StartSpan("eval.exact.query")
	defer span.End()
	reg := obs.Default()
	reg.Counter("eval.exact.queries").Inc()
	ts := tr.StartSpan("eval.plan")
	ev := newEvaluator(ix, q)
	ev.ctx = ctx
	ts.End()
	defer ev.finish(reg)
	r = &ExactResult{ev: ev}
	// checkCtx aborts a canceled evaluation by panicking with a sentinel;
	// translate it into a Canceled result here. The deferred finish above
	// still runs (LIFO after this recover), so the pooled scratch is
	// returned and counters flush either way.
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(ctxCanceled); !ok {
				panic(p)
			}
			r.Canceled = true
			reg.Counter("eval.exact.canceled").Inc()
		}
	}()
	ts = tr.StartSpan("eval.memo")
	root := ix.Doc.Root
	if root == nil || !ev.valid(0, root) {
		ts.End()
		ev.traceCounters(tr)
		r.Empty = true
		reg.Counter("eval.exact.empty").Inc()
		return r
	}
	r.Tuples = ev.tuples(0, root)
	ts.End()
	ev.traceCounters(tr)
	if math.IsInf(r.Tuples, 0) {
		r.Overflow = true
		reg.Counter("eval.exact.overflow").Inc()
	}
	if r.Tuples == 0 {
		r.Empty = true
		reg.Counter("eval.exact.empty").Inc()
	}
	return r
}

// traceCounters copies the evaluator's per-query counters onto the request
// trace (no-op on untraced requests), before finish flushes them into the
// aggregate registry.
func (ev *evaluator) traceCounters(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.AddCounter("exact_memo_hits", ev.memoHits)
	tr.AddCounter("exact_match_hits", ev.matchHits)
	tr.AddCounter("exact_label_scans", ev.labelScans)
	tr.AddCounter("exact_count_fast", ev.countFast)
}

// evaluator carries the per-query evaluation state over one document: the
// compiled query (edges and predicates numbered so memo cells live in dense
// epoch-stamped arrays), the pooled scratch, and the retained match memo.
type evaluator struct {
	ix     *Index
	q      *query.Query
	qnodes []*query.Node

	// ctxPoll carries the evaluation's cancellation signal (nil or
	// Background for batch callers); work is charged per element visited.
	ctxPoll
	qidx   map[*query.Node]int
	eidx   map[*query.Edge]int   // edge -> dense edge slot base
	pidx   map[*query.Path]int   // predicate -> dense pred slot base
	slids  map[*query.Step]int32 // step -> label ID (-1: label absent from document)
	stride int                   // OID space of the document

	// cedges holds, per query variable, its compiled outgoing edges, so the
	// hot recursion reads plain struct fields instead of hashing pointers.
	cedges [][]cedge

	// sc is the pooled dense scratch; nil between an Exact return and a
	// later materialization call (which re-acquires it).
	sc *exactScratch

	// bufPool recycles the transient intermediate-step slices of countPath
	// (a freelist stack, so predicate recursion nests safely).
	bufPool [][]*xmltree.Node

	// Locally accumulated counters, flushed once per evaluation.
	memoHits   int64
	matchHits  int64
	labelScans int64
	countFast  int64
}

// cedge is the compiled form of one query edge.
type cedge struct {
	edge  *query.Edge
	path  *query.Path
	slot  int  // dense edge index (match-memo plane)
	child int  // target variable's index in qnodes
	triv  bool // count-only edge: predicate-free path into a leaf variable
	opt   bool
}

func newEvaluator(ix *Index, q *query.Query) *evaluator {
	ev := &evaluator{
		ix:     ix,
		q:      q,
		qnodes: q.Vars(),
		qidx:   make(map[*query.Node]int),
		eidx:   make(map[*query.Edge]int),
		pidx:   make(map[*query.Path]int),
		slids:  make(map[*query.Step]int32),
		stride: ix.Doc.OIDSpace(),
	}
	// addPath numbers predicates and resolves every step's label ID once,
	// so the hot evaluation loops never hash a label string.
	var addPath func(p *query.Path)
	addPath = func(p *query.Path) {
		for si := range p.Steps {
			step := &p.Steps[si]
			if _, ok := ev.slids[step]; !ok {
				lid := int32(-1)
				if l, present := ix.labelID(step.Label); present {
					lid = int32(l)
				}
				ev.slids[step] = lid
			}
			for _, pred := range step.Preds {
				if _, ok := ev.pidx[pred]; !ok {
					ev.pidx[pred] = len(ev.pidx)
				}
				addPath(pred)
			}
		}
	}
	for i, qn := range ev.qnodes {
		ev.qidx[qn] = i
	}
	ev.cedges = make([][]cedge, len(ev.qnodes))
	for i, qn := range ev.qnodes {
		for _, e := range qn.Edges {
			slot := len(ev.eidx)
			ev.eidx[e] = slot
			addPath(e.Path)
			// A path into a leaf variable binds every path match (leaves are
			// vacuously valid, each contributing one tuple), so as long as
			// the final step carries no predicate, only the match count
			// matters and countPath answers it from the position index
			// without materializing the matches.
			ev.cedges[i] = append(ev.cedges[i], cedge{
				edge:  e,
				path:  e.Path,
				slot:  slot,
				child: ev.qidx[e.Child],
				triv:  countable(e.Path) && len(e.Child.Edges) == 0,
				opt:   e.Optional,
			})
		}
	}
	ev.acquire()
	return ev
}

// acquire grabs (or re-grabs) the index's pooled scratch sized for this
// query. A fresh epoch means every memo cell (including the match memo)
// starts unset, so a materialization call after Exact returns replays the
// evaluation; determinism makes the replay bit-identical.
func (ev *evaluator) acquire() {
	if ev.sc != nil {
		return
	}
	ev.sc = ev.ix.grabScratch()
	ev.sc.ensure(len(ev.qnodes)*ev.stride, len(ev.pidx)*ev.stride,
		len(ev.eidx)*ev.stride, len(ev.ix.order))
}

// finish releases the scratch back to the index pool and flushes the
// locally accumulated counters.
func (ev *evaluator) finish(reg *obs.Registry) {
	if ev.sc != nil {
		ev.ix.releaseScratch(ev.sc)
		ev.sc = nil
	}
	if ev.memoHits > 0 {
		reg.Counter("eval.exact.memo_hits").Add(ev.memoHits)
		ev.memoHits = 0
	}
	if ev.matchHits > 0 {
		reg.Counter("eval.exact.match_hits").Add(ev.matchHits)
		ev.matchHits = 0
	}
	if ev.labelScans > 0 {
		reg.Counter("eval.exact.label_scans").Add(ev.labelScans)
		ev.labelScans = 0
	}
	if ev.countFast > 0 {
		reg.Counter("eval.exact.count_shortcuts").Add(ev.countFast)
		ev.countFast = 0
	}
}

// path evaluates a path expression from element e, applying existential
// predicates, and returns matched elements deduplicated in document order.
//
// Each step gathers its deduplicated candidate set first and filters
// predicates second. The original formulation interleaved the two per
// source element; since predicate outcomes are memoized per element, both
// orders keep exactly the elements whose predicates hold, in first-
// occurrence (document) order.
func (ev *evaluator) path(e *xmltree.Node, p *query.Path) []*xmltree.Node {
	ev.checkCtx()
	ix := ev.ix
	cur := []*xmltree.Node{e}
	for si := range p.Steps {
		step := &p.Steps[si]
		lid := int(ev.slids[step])
		if lid < 0 {
			return nil
		}
		var next []*xmltree.Node
		if step.Axis == query.Child {
			// Children of distinct (deduplicated) parents are disjoint, so
			// concatenation in source order needs no dedup and is document
			// order.
			for _, c := range cur {
				next = ix.appendChildren(next, c, lid)
			}
			ev.labelScans++
		} else if len(cur) == 1 {
			for _, pos := range ix.posRange(lid, cur[0]) {
				next = append(next, ix.order[pos])
			}
			ev.labelScans++
		} else {
			// Descendant sets of multiple sources can overlap (sources may
			// nest); dedup by pre-order position with an epoch mark.
			mark := ev.sc.beginSeen()
			seen := ev.sc.seenEp
			for _, c := range cur {
				for _, pos := range ix.posRange(lid, c) {
					if seen[pos] == mark {
						continue
					}
					seen[pos] = mark
					next = append(next, ix.order[pos])
				}
			}
			ev.labelScans++
		}
		ev.tickCtx(len(next))
		if len(step.Preds) > 0 {
			kept := next[:0]
			for _, t := range next {
				if ev.satisfiesPreds(t, step.Preds) {
					kept = append(kept, t)
				}
			}
			next = kept
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func (ev *evaluator) satisfiesPreds(e *xmltree.Node, preds []*query.Path) bool {
	sc := ev.sc
	for _, pred := range preds {
		slot := ev.pidx[pred]*ev.stride + e.OID
		var sat bool
		if sc.predEp[slot] == sc.epoch {
			sat = sc.predVal[slot]
		} else {
			// Predicates are existential, so a countable path needs only a
			// non-empty match count, not the match list.
			if countable(pred) {
				sat = ev.countPath(e, pred, true) > 0
			} else {
				sat = len(ev.path(e, pred)) > 0
			}
			sc.predEp[slot] = sc.epoch
			sc.predVal[slot] = sat
		}
		if !sat {
			return false
		}
	}
	return true
}

// countable reports whether countPath can count p's matches: the final
// step must be predicate-free (intermediate predicates just filter sources,
// but a final-step predicate would force materializing the matches anyway).
func countable(p *query.Path) bool {
	return len(p.Steps[len(p.Steps)-1].Preds) == 0
}

// countPath returns the number of elements a countable path reaches from e
// without materializing the final (usually largest) match set; with
// existOnly it stops at the first match. Intermediate steps enumerate and
// predicate-filter exactly like path; the final step is counted from the
// label position index. Child-step counts are exact because distinct
// parents have disjoint child sets; a final descendant step sums disjoint
// subtree ranges while no earlier descendant step has run (sources then sit
// in disjoint subtrees), and falls back to dedup counting afterwards.
func (ev *evaluator) countPath(e *xmltree.Node, p *query.Path, existOnly bool) int {
	ev.checkCtx()
	ix := ev.ix
	k := len(p.Steps)
	last := &p.Steps[k-1]
	lastLid := int(ev.slids[last])
	if lastLid < 0 {
		return 0
	}
	if k == 1 {
		ev.labelScans++
		ev.countFast++
		if last.Axis == query.Child {
			return ix.countChildren(e, lastLid)
		}
		return len(ix.posRange(lastLid, e))
	}
	root := [1]*xmltree.Node{e}
	cur := root[:1]
	pooled := false // whether cur came from bufPool
	nonNesting := true
	for si := 0; si < k-1; si++ {
		step := &p.Steps[si]
		lid := int(ev.slids[step])
		if lid < 0 {
			ev.putBuf(cur, pooled)
			return 0
		}
		ev.labelScans++
		next := ev.getBuf()
		if step.Axis == query.Child {
			for _, c := range cur {
				next = ix.appendChildren(next, c, lid)
			}
		} else if len(cur) == 1 {
			for _, pos := range ix.posRange(lid, cur[0]) {
				next = append(next, ix.order[pos])
			}
			nonNesting = false
		} else {
			mark := ev.sc.beginSeen()
			seen := ev.sc.seenEp
			for _, c := range cur {
				for _, pos := range ix.posRange(lid, c) {
					if seen[pos] == mark {
						continue
					}
					seen[pos] = mark
					next = append(next, ix.order[pos])
				}
			}
			nonNesting = false
		}
		ev.tickCtx(len(next))
		if len(step.Preds) > 0 {
			kept := next[:0]
			for _, t := range next {
				if ev.satisfiesPreds(t, step.Preds) {
					kept = append(kept, t)
				}
			}
			next = kept
		}
		ev.putBuf(cur, pooled)
		cur, pooled = next, true
		if len(cur) == 0 {
			ev.putBuf(cur, pooled)
			return 0
		}
	}
	ev.labelScans++
	ev.countFast++
	total := 0
	switch {
	case last.Axis == query.Child:
		for _, c := range cur {
			total += ix.countChildren(c, lastLid)
			if existOnly && total > 0 {
				break
			}
		}
	case nonNesting:
		for _, c := range cur {
			total += len(ix.posRange(lastLid, c))
			if existOnly && total > 0 {
				break
			}
		}
	default:
		mark := ev.sc.beginSeen()
		seen := ev.sc.seenEp
		for _, c := range cur {
			rng := ix.posRange(lastLid, c)
			if existOnly && len(rng) > 0 {
				total = 1
				break
			}
			for _, pos := range rng {
				if seen[pos] != mark {
					seen[pos] = mark
					total++
				}
			}
		}
	}
	ev.tickCtx(len(cur) + total)
	ev.putBuf(cur, pooled)
	return total
}

// getBuf hands out a recycled (empty, capacity-retaining) slice for
// countPath's transient intermediate sets; putBuf returns one.
func (ev *evaluator) getBuf() []*xmltree.Node {
	if n := len(ev.bufPool); n > 0 {
		b := ev.bufPool[n-1][:0]
		ev.bufPool = ev.bufPool[:n-1]
		return b
	}
	return nil
}

func (ev *evaluator) putBuf(b []*xmltree.Node, pooled bool) {
	if pooled && cap(b) > 0 {
		ev.bufPool = append(ev.bufPool, b)
	}
}

// edgeCount returns the match count of a count-only (triv) edge at e,
// memoized per (edge, element) so valid and tuples share one computation.
// The memo forces a full count (no existence early-exit): valid would
// accept a cheaper nonzero answer, but a later tuples call needs the total.
func (ev *evaluator) edgeCount(ce *cedge, e *xmltree.Node) int {
	sc := ev.sc
	k := ce.slot*ev.stride + e.OID
	if sc.countEp[k] == sc.epoch {
		ev.memoHits++
		return int(sc.countVal[k])
	}
	n := ev.countPath(e, ce.path, false)
	sc.countEp[k] = sc.epoch
	sc.countVal[k] = int32(n)
	return n
}

// matches returns the elements bound to an edge's target variable relative
// to a binding e of its source variable (path matches only; validity
// filtering is separate). slot is the edge's dense index.
func (ev *evaluator) matches(slot int, p *query.Path, e *xmltree.Node) []*xmltree.Node {
	sc := ev.sc
	k := slot*ev.stride + e.OID
	if sc.matchEp[k] == sc.epoch {
		ev.matchHits++
		return sc.matchVal[k]
	}
	m := ev.path(e, p)
	sc.matchEp[k] = sc.epoch
	sc.matchVal[k] = m
	return m
}

// valid reports whether element e is a valid binding for query variable
// qi: every required child edge must have at least one valid binding.
func (ev *evaluator) valid(qi int, e *xmltree.Node) bool {
	ev.checkCtx()
	sc := ev.sc
	slot := qi*ev.stride + e.OID
	if sc.validEp[slot] == sc.epoch {
		ev.memoHits++
		return sc.validVal[slot] == 1
	}
	// Mark invalid during computation; the query tree is acyclic so no
	// recursion can revisit (qi, e), but keep the invariant obvious.
	sc.validEp[slot] = sc.epoch
	sc.validVal[slot] = 2
	ok := true
	for i := range ev.cedges[qi] {
		ce := &ev.cedges[qi][i]
		if ce.opt {
			continue
		}
		if ce.triv {
			if ev.edgeCount(ce, e) == 0 {
				ok = false
				break
			}
			continue
		}
		found := false
		for _, m := range ev.matches(ce.slot, ce.path, e) {
			if ev.valid(ce.child, m) {
				found = true
				break
			}
		}
		if !found {
			ok = false
			break
		}
	}
	if ok {
		sc.validVal[slot] = 1
	}
	return ok
}

// tuples counts the binding tuples rooted at (qi, e): the product over
// child edges of the summed tuples of valid matches, with empty optional
// groups contributing a NULL binding (factor 1).
func (ev *evaluator) tuples(qi int, e *xmltree.Node) float64 {
	ev.checkCtx()
	sc := ev.sc
	slot := qi*ev.stride + e.OID
	if sc.tupEp[slot] == sc.epoch {
		ev.memoHits++
		return sc.tupVal[slot]
	}
	total := 1.0
	for i := range ev.cedges[qi] {
		ce := &ev.cedges[qi][i]
		var s float64
		if ce.triv {
			// Each match of a leaf variable is valid and contributes exactly
			// one tuple, and float64(k) is bit-identical to summing 1.0 k
			// times for any count below 2^53.
			s = float64(ev.edgeCount(ce, e))
		} else {
			for _, m := range ev.matches(ce.slot, ce.path, e) {
				if ev.valid(ce.child, m) {
					s += ev.tuples(ce.child, m)
				}
			}
		}
		if s == 0 {
			if ce.opt {
				s = 1
			} else {
				total = 0
				break
			}
		}
		total *= s
	}
	sc.tupEp[slot] = sc.epoch
	sc.tupVal[slot] = total
	return total
}

// NestingTree materializes the nesting tree NT(Q) as an XML tree (element
// labels only). maxNodes caps the output (<= 0 selects a default cap);
// exceeding it is an error.
func (r *ExactResult) NestingTree(maxNodes int) (*xmltree.Tree, error) {
	if maxNodes <= 0 {
		maxNodes = 1 << 22
	}
	t := xmltree.NewTree()
	if r.Empty {
		return t, nil
	}
	ev := r.ev
	ev.acquire()
	defer ev.finish(obs.Default())
	var build func(qi int, e *xmltree.Node) (*xmltree.Node, error)
	build = func(qi int, e *xmltree.Node) (*xmltree.Node, error) {
		if t.Size() >= maxNodes {
			return nil, fmt.Errorf("eval: nesting tree exceeds %d nodes", maxNodes)
		}
		n := t.NewNode(e.Label)
		for i := range ev.cedges[qi] {
			ce := &ev.cedges[qi][i]
			for _, m := range ev.matches(ce.slot, ce.path, e) {
				if !ev.valid(ce.child, m) {
					continue
				}
				c, err := build(ce.child, m)
				if err != nil {
					return nil, err
				}
				n.Children = append(n.Children, c)
			}
		}
		return n, nil
	}
	root, err := build(0, ev.ix.Doc.Root)
	if err != nil {
		return nil, err
	}
	t.Root = root
	return t, nil
}

// ESDGraph converts the true nesting tree into the consolidated DAG form
// consumed by the ESD metric, with labels tagged by query variable
// ("q1:author") so that comparisons are restricted to bindings of the same
// variable, per the paper's Section 6.1 methodology. Returns nil for an
// empty result.
func (r *ExactResult) ESDGraph() *esd.Node {
	if r.Empty {
		return nil
	}
	ev := r.ev
	ev.acquire()
	defer ev.finish(obs.Default())
	type esdKey struct {
		q   int
		oid int
	}
	memo := make(map[esdKey]*esd.Node)
	var build func(qi int, e *xmltree.Node) *esd.Node
	build = func(qi int, e *xmltree.Node) *esd.Node {
		k := esdKey{qi, e.OID}
		if n, ok := memo[k]; ok {
			return n
		}
		n := &esd.Node{Label: ev.qnodes[qi].Var + ":" + e.Label}
		memo[k] = n
		mults := make(map[*esd.Node]float64)
		var order []*esd.Node
		for i := range ev.cedges[qi] {
			ce := &ev.cedges[qi][i]
			for _, m := range ev.matches(ce.slot, ce.path, e) {
				if !ev.valid(ce.child, m) {
					continue
				}
				c := build(ce.child, m)
				if _, seen := mults[c]; !seen {
					order = append(order, c)
				}
				mults[c]++
			}
		}
		for _, c := range order {
			n.Edges = append(n.Edges, esd.Edge{Child: c, Mult: mults[c]})
		}
		return n
	}
	return esd.Consolidate(build(0, ev.ix.Doc.Root))
}
