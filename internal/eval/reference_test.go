package eval

import (
	"context"

	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/xmltree"
)

// This file holds the reference evaluators the differential tests (and
// fuzzing) compare the fast paths against: a straightforward exact
// evaluator with per-query map memo tables and per-step map deduplication,
// and a naive approximate embedding enumeration with label-reachability
// pruning only and per-embedding count walks. Neither is compiled into the
// package; the approximate one plugs into a normal evaluation through the
// approxer's ref switch.

// approxVariant evaluates q like Approx after set has adjusted the
// evaluator's test-only switches (approxer.noPrune, approxer.ref) or its
// refinements.
func approxVariant(sk *sketch.Sketch, q *query.Query, opts Options, set func(a *approxer)) *Result {
	a := newApproxer(context.Background(), sk, q, opts)
	set(a)
	return a.eval(context.Background())
}

// approxRef evaluates q like Approx, with every path expression enumerated
// by the reference enumeration. On queries that do not hit the
// MaxEmbeddings truncation guards the fast path is bit-identical to it.
func approxRef(sk *sketch.Sketch, q *query.Query, opts Options) *Result {
	return approxVariant(sk, q, opts, func(a *approxer) {
		a.ref = (&refEnum{a: a}).embeddings
	})
}

// approxUnpruned evaluates q like Approx but keeps the raw result graph: no
// pruning and no conditioning.
func approxUnpruned(sk *sketch.Sketch, q *query.Query, opts Options) *Result {
	return approxVariant(sk, q, opts, func(a *approxer) { a.noPrune = true })
}

// embedding is one mapping of a path expression into the synopsis, as the
// reference enumeration materializes it: the sequence of synopsis nodes
// traversed (one per edge, source excluded) and every assignment of
// location steps to positions in it. The same node path can admit several
// assignments (with recursive labels, //parlist//listitem embeds into a
// nested parlist chain in more than one way); counting the node path once
// matches XPath's set semantics.
type embedding struct {
	nodes   []int
	stepAts [][]int
}

// refEnum is the reference approximate enumeration of one evaluation.
type refEnum struct {
	a     *approxer
	reach map[string][]bool // label -> per-node reachability, built on first use
}

// embeddings enumerates the mappings of p's steps into the synopsis
// starting at node from, re-walks each embedding's node path for its
// product — average child counts, or per-hop existence probabilities when
// needExist — and pushes the embeddings onto the evaluation's record stack
// in the fast path's flat form (see walk).
func (r *refEnum) embeddings(from int, p *query.Path, needExist bool) {
	sc := r.a.sc
	for _, e := range r.enumerate(from, p.Steps) {
		prod := r.product(from, e.nodes, needExist)
		for i, stepAt := range e.stepAts {
			landing := make([]int32, len(stepAt))
			for si, at := range stepAt {
				landing[si] = int32(e.nodes[at])
			}
			if i == 0 {
				sc.pushRec(e.nodes[len(e.nodes)-1], prod, landing)
			} else {
				sc.addAssignment(len(sc.recs)-1, landing)
			}
		}
	}
}

// product multiplies the per-edge factor along one embedding's node path.
func (r *refEnum) product(from int, nodes []int, needExist bool) float64 {
	sk := r.a.sk
	prod, prev := 1.0, from
	for _, nid := range nodes {
		edge, ok := sk.Nodes[prev].EdgeTo(nid)
		if !ok {
			return 0
		}
		if needExist {
			prod *= edgeExistence(edge, sk.Nodes[prev].Count)
		} else {
			prod *= edge.Avg
		}
		prev = nid
	}
	return prod
}

// enumerate is the naive enumeration: a Child step follows one matching
// edge; a Descendant step follows any downward path ending at a matching
// label. Mappings sharing a node path are merged into one embedding with
// multiple step assignments.
//
// Two guards keep enumeration cheap: descendant exploration skips subgraphs
// from which the target label is unreachable (label-reachability prune),
// and total DFS work is bounded by a step budget proportional to
// MaxEmbeddings so that fruitless dense regions cannot stall evaluation.
func (r *refEnum) enumerate(from int, steps []query.Step) []embedding {
	a := r.a
	var out []embedding
	byPath := make(map[string]int) // node-path key -> index in out
	budget := a.opts.MaxEmbeddings
	work := 64 * a.opts.MaxEmbeddings
	if a.poolOn {
		budget, work = a.poolBudget, a.poolWork
	}
	startWork := work
	var nodes []int
	var stepAt []int

	var rec func(cur, si int)
	emit := func() {
		key := pathKey(nodes)
		if i, ok := byPath[key]; ok {
			out[i].stepAts = append(out[i].stepAts, append([]int(nil), stepAt...))
			return
		}
		byPath[key] = len(out)
		out = append(out, embedding{
			nodes:   append([]int(nil), nodes...),
			stepAts: [][]int{append([]int(nil), stepAt...)},
		})
	}
	var desc func(cur, si int)
	rec = func(cur, si int) {
		if budget <= 0 || work <= 0 {
			a.truncated = true
			return
		}
		if si == len(steps) {
			budget--
			emit()
			return
		}
		step := &steps[si]
		if step.Axis == query.Child {
			for _, e := range a.sk.Nodes[cur].Edges {
				if a.sk.Nodes[e.Child].Label != step.Label {
					continue
				}
				work--
				a.tickCtx(1)
				nodes = append(nodes, e.Child)
				stepAt = append(stepAt, len(nodes)-1)
				rec(e.Child, si+1)
				nodes = nodes[:len(nodes)-1]
				stepAt = stepAt[:len(stepAt)-1]
			}
			return
		}
		desc(cur, si)
	}
	// desc explores all downward paths for a Descendant step: every node
	// whose label matches is a landing point (and the search continues
	// deeper regardless, since descendants below a match can match too).
	desc = func(cur, si int) {
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
			if !r.reaches(e.Child, step.Label) {
				continue
			}
			work--
			a.tickCtx(1)
			nodes = append(nodes, e.Child)
			if a.sk.Nodes[e.Child].Label == step.Label {
				stepAt = append(stepAt, len(nodes)-1)
				rec(e.Child, si+1)
				stepAt = stepAt[:len(stepAt)-1]
			}
			desc(e.Child, si)
			nodes = nodes[:len(nodes)-1]
		}
	}
	rec(from, 0)
	if a.poolOn {
		a.poolBudget, a.poolWork = budget, work
	}
	a.mEmbeddings.Add(int64(len(out)))
	a.mEmbedWork.Add(int64(startWork - work))
	return out
}

// reaches reports whether a node with the given label is reachable from id
// (including id itself) following synopsis edges. Computed once per label
// over the whole graph and cached.
func (r *refEnum) reaches(id int, label string) bool {
	sk := r.a.sk
	reach, ok := r.reach[label]
	if !ok {
		reach = make([]bool, len(sk.Nodes))
		// Seed with label occurrences, then propagate along reverse edges
		// until a fixed point; iterate passes for simplicity (graphs are
		// small and the pass count is bounded by the longest chain).
		for _, u := range sk.Nodes {
			if u != nil && u.Label == label {
				reach[u.ID] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for _, u := range sk.Nodes {
				if u == nil || reach[u.ID] {
					continue
				}
				for _, e := range u.Edges {
					if reach[e.Child] {
						reach[u.ID] = true
						changed = true
						break
					}
				}
			}
		}
		if r.reach == nil {
			r.reach = make(map[string][]bool)
		}
		r.reach[label] = reach
	}
	return reach[id]
}

// pathKey renders a node-ID sequence as a map key.
func pathKey(nodes []int) string {
	buf := make([]byte, 0, len(nodes)*3)
	for _, n := range nodes {
		for n >= 0x80 {
			buf = append(buf, byte(n)|0x80)
			n >>= 7
		}
		buf = append(buf, byte(n))
	}
	return string(buf)
}

// exactReference evaluates q with the map-based reference evaluator and
// returns the binding-tuple count and emptiness. Results are
// bit-identical to Exact (the fast path changes memo layout and scan
// strategy, never the sequence of arithmetic).
func exactReference(ix *Index, q *query.Query) (tuples float64, empty bool) {
	ev := &refEvaluator{
		ix:        ix,
		qnodes:    q.Vars(),
		qidx:      make(map[*query.Node]int),
		matchMemo: make(map[refMatchKey][]*xmltree.Node),
		validMemo: make(map[refMemoKey]int8),
		tupMemo:   make(map[refMemoKey]float64),
		predMemo:  make(map[refPredKey]bool),
	}
	for i, qn := range ev.qnodes {
		ev.qidx[qn] = i
	}
	root := ix.Doc.Root
	if root == nil || !ev.valid(0, root) {
		return 0, true
	}
	t := ev.tuples(0, root)
	return t, t == 0
}

type refEvaluator struct {
	ix     *Index
	qnodes []*query.Node
	qidx   map[*query.Node]int

	matchMemo map[refMatchKey][]*xmltree.Node
	validMemo map[refMemoKey]int8 // 0 unknown, 1 valid, 2 invalid
	tupMemo   map[refMemoKey]float64
	predMemo  map[refPredKey]bool
}

type refMemoKey struct {
	q   int
	oid int
}

type refMatchKey struct {
	edge *query.Edge
	oid  int
}

type refPredKey struct {
	pred *query.Path
	oid  int
}

// path is the per-step evaluation: per source element, candidates
// are gathered, predicate-filtered, and deduplicated with a map.
func (ev *refEvaluator) path(e *xmltree.Node, p *query.Path) []*xmltree.Node {
	cur := []*xmltree.Node{e}
	for si := range p.Steps {
		step := &p.Steps[si]
		seen := make(map[int]bool)
		var next []*xmltree.Node
		for _, c := range cur {
			var cands []*xmltree.Node
			if step.Axis == query.Child {
				cands = ev.ix.Children(c, step.Label)
			} else {
				cands = ev.ix.Descendants(c, step.Label)
			}
			for _, t := range cands {
				if seen[t.OID] {
					continue
				}
				if !ev.satisfiesPreds(t, step.Preds) {
					continue
				}
				seen[t.OID] = true
				next = append(next, t)
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func (ev *refEvaluator) satisfiesPreds(e *xmltree.Node, preds []*query.Path) bool {
	for _, pred := range preds {
		k := refPredKey{pred, e.OID}
		sat, ok := ev.predMemo[k]
		if !ok {
			sat = len(ev.path(e, pred)) > 0
			ev.predMemo[k] = sat
		}
		if !sat {
			return false
		}
	}
	return true
}

func (ev *refEvaluator) matches(edge *query.Edge, e *xmltree.Node) []*xmltree.Node {
	k := refMatchKey{edge, e.OID}
	if m, ok := ev.matchMemo[k]; ok {
		return m
	}
	m := ev.path(e, edge.Path)
	ev.matchMemo[k] = m
	return m
}

func (ev *refEvaluator) valid(qi int, e *xmltree.Node) bool {
	k := refMemoKey{qi, e.OID}
	if v, ok := ev.validMemo[k]; ok {
		return v == 1
	}
	ev.validMemo[k] = 2
	qn := ev.qnodes[qi]
	ok := true
	for _, edge := range qn.Edges {
		if edge.Optional {
			continue
		}
		found := false
		for _, m := range ev.matches(edge, e) {
			if ev.valid(ev.qidx[edge.Child], m) {
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
		ev.validMemo[k] = 1
	}
	return ok
}

func (ev *refEvaluator) tuples(qi int, e *xmltree.Node) float64 {
	k := refMemoKey{qi, e.OID}
	if v, ok := ev.tupMemo[k]; ok {
		return v
	}
	qn := ev.qnodes[qi]
	total := 1.0
	for _, edge := range qn.Edges {
		var s float64
		for _, m := range ev.matches(edge, e) {
			if ev.valid(ev.qidx[edge.Child], m) {
				s += ev.tuples(ev.qidx[edge.Child], m)
			}
		}
		if s == 0 {
			if edge.Optional {
				s = 1
			} else {
				total = 0
				break
			}
		}
		total *= s
	}
	ev.tupMemo[k] = total
	return total
}
