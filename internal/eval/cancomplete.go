package eval

import "treesketch/internal/query"

// canTab returns (building on first use) the can-complete memo of one path
// expression over the evaluation's synopsis: plane one holds canRec(node,
// si) — "enumerating steps[si:] from node emits at least one embedding" —
// and plane two holds canDesc(node, si), the same question for the
// descendant-axis search that explores strictly below node. DFS branches
// whose entry is false are pruned without being walked; because the memo
// answers existence exactly (not a label-reachability approximation), every
// surviving branch leads to an emission, which is what bounds the
// enumeration tail by output size rather than synopsis size.
func (a *approxer) canTab(p *query.Path) []int8 {
	if t, ok := a.canTabs[p]; ok {
		return t
	}
	t := make([]int8, 2*len(p.Steps)*len(a.sk.Nodes))
	if a.canTabs == nil {
		a.canTabs = make(map[*query.Path][]int8)
	}
	a.canTabs[p] = t
	return t
}

// canRec reports whether enumerating steps[si:] from node yields at least
// one embedding. Memo values: 0 unknown, 1 yes, 2 no (also the in-progress
// marker, which keeps malformed cyclic inputs from recursing forever).
func (a *approxer) canRec(tab []int8, steps []query.Step, node, si int) bool {
	if si == len(steps) {
		return true
	}
	n := len(a.sk.Nodes)
	slot := si*n + node
	if v := tab[slot]; v != 0 {
		a.canHits++
		return v == 1
	}
	tab[slot] = 2
	a.tickCtx(1)
	step := &steps[si]
	res := false
	if u := a.sk.Nodes[node]; u != nil {
		if step.Axis == query.Child {
			for _, e := range u.Edges {
				c := a.sk.Nodes[e.Child]
				if c != nil && c.Label == step.Label && a.canRec(tab, steps, e.Child, si+1) {
					res = true
					break
				}
			}
		} else {
			res = a.canDesc(tab, steps, node, si)
		}
	}
	if res {
		tab[slot] = 1
	}
	return res
}

// canDesc reports whether the descendant-axis search for steps[si:] rooted
// strictly below node can land on a matching element and complete.
func (a *approxer) canDesc(tab []int8, steps []query.Step, node, si int) bool {
	n := len(a.sk.Nodes)
	slot := (len(steps)+si)*n + node
	if v := tab[slot]; v != 0 {
		a.canHits++
		return v == 1
	}
	tab[slot] = 2
	a.tickCtx(1)
	step := &steps[si]
	res := false
	if u := a.sk.Nodes[node]; u != nil {
		for _, e := range u.Edges {
			c := a.sk.Nodes[e.Child]
			if c == nil {
				continue
			}
			if c.Label == step.Label && a.canRec(tab, steps, e.Child, si+1) {
				res = true
				break
			}
			if a.canDesc(tab, steps, e.Child, si) {
				res = true
				break
			}
		}
	}
	if res {
		tab[slot] = 1
	}
	return res
}
