package eval

import (
	"treesketch/internal/xmltree"
)

// BindingTuple assigns one document element to each query variable, in
// variable pre-order (index 0 = q0 = the document root). Entries for
// optional variables with no match are nil (NULL bindings).
type BindingTuple []*xmltree.Node

// BindingTuples enumerates up to limit binding tuples of the query
// (limit <= 0 selects 1000). The count of all tuples is ExactResult.Tuples;
// enumeration materializes them in document order, variables nested
// left-to-right.
func (r *ExactResult) BindingTuples(limit int) []BindingTuple {
	if limit <= 0 {
		limit = 1000
	}
	if r.Empty {
		return nil
	}
	ev := r.ev
	ev.acquire()
	defer ev.finish()
	n := len(ev.qnodes)
	var out []BindingTuple
	cur := make(BindingTuple, n)

	var rec func(qi int, e *xmltree.Node, cont func() bool) bool
	// rec binds (qi, e), then runs the continuation for the remaining
	// variables; it returns false to stop enumeration (limit reached).
	rec = func(qi int, e *xmltree.Node, cont func() bool) bool {
		cur[qi] = e
		defer func() { cur[qi] = nil }()
		qn := ev.qnodes[qi]
		// Chain the child edges of qi, then the outer continuation.
		var chain func(ei int) bool
		chain = func(ei int) bool {
			if ei == len(qn.Edges) {
				return cont()
			}
			ce := &ev.cedges[qi][ei]
			ci := ce.child
			matched := false
			if e != nil {
				for _, m := range ev.matches(ce.slot, ce.path, e) {
					if !ev.valid(ci, m) {
						continue
					}
					matched = true
					if !rec(ci, m, func() bool { return chain(ei + 1) }) {
						return false
					}
				}
			}
			if !matched {
				if !ce.opt {
					return true // dead branch; skip, keep enumerating
				}
				// NULL binding for the optional subtree.
				return nullSubtree(ev, ci, cur, func() bool { return chain(ei + 1) })
			}
			return true
		}
		return chain(0)
	}

	emit := func() bool {
		out = append(out, append(BindingTuple(nil), cur...))
		return len(out) < limit
	}
	rec(0, ev.ix.Doc.Root, emit)
	return out
}

// nullSubtree sets every variable in the subtree rooted at qi to nil and
// runs the continuation once.
func nullSubtree(ev *evaluator, qi int, cur BindingTuple, cont func() bool) bool {
	var clear func(q int)
	clear = func(q int) {
		cur[q] = nil
		for _, e := range ev.qnodes[q].Edges {
			clear(ev.qidx[e.Child])
		}
	}
	clear(qi)
	return cont()
}
