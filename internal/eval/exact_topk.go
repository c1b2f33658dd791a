package eval

import (
	"container/heap"
	"fmt"

	"treesketch/internal/xmltree"
)

// ntItem is one pending nesting-tree node: a valid (variable, element)
// binding occurrence waiting to be materialized under its output parent.
type ntItem struct {
	qi   int
	e    *xmltree.Node
	out  *xmltree.Node // parent already materialized in the output tree
	seq  int           // discovery order; deterministic tie-break
	mass float64       // exact node count of the NT subtree rooted here
}

// ntHeap is a max-heap on subtree mass with discovery order as tie-break —
// the exact-side twin of the approximate evaluator's tkHeap.
type ntHeap []*ntItem

func (h ntHeap) Len() int { return len(h) }
func (h ntHeap) Less(i, j int) bool {
	if h[i].mass != h[j].mass {
		return h[i].mass > h[j].mass
	}
	return h[i].seq < h[j].seq
}
func (h ntHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *ntHeap) Push(x any)   { *h = append(*h, x.(*ntItem)) }
func (h *ntHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

// TopKNestingTree materializes the nesting tree NT(Q) best-first: the
// pending subtree with the largest exact node count is emitted next, so a
// budget of limit nodes captures the heaviest-possible prefix of the
// answer. Unlike the approximate side, the accounting here is exact, not a
// bound: EmittedMass + ErrorBound equals the full nesting tree's node count
// (each materialized node contributes mass 1; ErrorBound sums the exact
// sizes of the unexpanded frontier subtrees).
//
// A limit <= 0 materializes the full tree (under the same default cap as
// NestingTree, exceeding it is an error). Children appear under their
// parent in emission (mass) order, not document order — the point of the
// mode is that the heavy answers surface first.
//
// A context deadline (the ctx the result was evaluated under) is observed
// at two granularities: between node expansions the loop stops gracefully
// — the emitted prefix is returned with DeadlineHit set — and inside the
// subtree-size DP or the match replay the evaluator's periodic checkCtx
// aborts the call, which surfaces here as the context's error (the
// partially built tree cannot price a sound ErrorBound, so nothing is
// returned).
func (r *ExactResult) TopKNestingTree(limit int) (t *xmltree.Tree, info *TopKInfo, err error) {
	info = &TopKInfo{}
	if limit > 0 {
		info.K = limit
	}
	t = xmltree.NewTree()
	if r.Empty {
		info.Exhausted = true
		return t, info, nil
	}
	ev := r.ev
	ev.acquire()
	defer ev.finish()
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(ctxCanceled); !ok {
				panic(p)
			}
			t, info, err = nil, nil, ev.ctx.Err()
		}
	}()

	// ntSize computes the exact NT subtree node count per (variable,
	// element) occurrence. Shared document subtrees are counted once here
	// and re-counted per occurrence by the summation — exactly how
	// NestingTree duplicates them on materialization.
	counts := make(map[int]float64)
	var ntSize func(qi int, e *xmltree.Node) float64
	ntSize = func(qi int, e *xmltree.Node) float64 {
		ev.checkCtx()
		slot := qi*ev.stride + e.OID
		if v, ok := counts[slot]; ok {
			return v
		}
		total := 1.0
		for i := range ev.cedges[qi] {
			ce := &ev.cedges[qi][i]
			for _, m := range ev.matches(ce.slot, ce.path, e) {
				if ev.valid(ce.child, m) {
					total += ntSize(ce.child, m)
				}
			}
		}
		counts[slot] = total
		return total
	}

	budget := limit
	if budget <= 0 {
		budget = 1 << 22
	}
	h := &ntHeap{}
	seq := 0
	heap.Push(h, &ntItem{qi: 0, e: ev.ix.Doc.Root, mass: ntSize(0, ev.ix.Doc.Root)})
	info.Discovered = 1
	for h.Len() > 0 {
		if info.Expanded >= budget {
			if limit <= 0 {
				return nil, nil, fmt.Errorf("eval: nesting tree exceeds %d nodes", budget)
			}
			break
		}
		// Mirror the approximate expansion's deadline contract: at least one
		// node goes out, and a deadline crossed between expansions returns
		// the emitted prefix (the frontier sum below still prices the full
		// remainder, so the accounting stays exact).
		if info.Expanded > 0 && ev.ctxErr() != nil {
			info.DeadlineHit = true
			break
		}
		it := heap.Pop(h).(*ntItem)
		n := t.NewNode(it.e.Label)
		if it.out == nil {
			t.Root = n
		} else {
			it.out.Children = append(it.out.Children, n)
		}
		info.Expanded++
		info.EmittedMass++
		for i := range ev.cedges[it.qi] {
			ce := &ev.cedges[it.qi][i]
			for _, m := range ev.matches(ce.slot, ce.path, it.e) {
				if !ev.valid(ce.child, m) {
					continue
				}
				seq++
				heap.Push(h, &ntItem{qi: ce.child, e: m, out: n, seq: seq, mass: ntSize(ce.child, m)})
				info.Discovered++
			}
		}
	}
	for _, it := range *h {
		info.ErrorBound += it.mass
	}
	info.Exhausted = h.Len() == 0
	return t, info, nil
}
