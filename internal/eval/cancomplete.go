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
//
// Tables are carved from the scratch's arena. When it runs out, the next
// arena is sized to hold every table of the query so far, so a pooled
// arena settles at the size the stream's queries need.
func (a *approxer) canTab(p *query.Path) canTable {
	sc := a.sc
	if t, ok := sc.canTabs[p]; ok {
		return t
	}
	need := (2*len(p.Steps)*len(a.sk.Nodes) + 3) / 4
	end := sc.canUsed + need
	if end > len(sc.canArena) {
		sc.canArena = make([]uint8, max(end, 2*len(sc.canArena)))
		sc.canUsed, end = 0, need
	}
	t := canTable(sc.canArena[sc.canUsed:end:end])
	sc.canUsed = end
	clear(t)
	sc.canTabs[p] = t
	return t
}

// canTable is a can-complete memo, packed two bits per slot: canUnknown,
// canNo (also the in-progress marker, which keeps malformed cyclic inputs
// from recursing forever) or canYes. Settling a slot only ever sets bits.
type canTable []uint8

const (
	canUnknown = 0
	canNo      = 2
	canYes     = 3
)

func (t canTable) get(slot int) uint8 {
	return t[slot>>2] >> (slot & 3 * 2) & 3
}

func (t canTable) set(slot int, v uint8) {
	t[slot>>2] |= v << (slot & 3 * 2)
}

// canRec reports whether enumerating steps[si:] from node yields at least
// one embedding.
func (a *approxer) canRec(tab canTable, steps []query.Step, node, si int) bool {
	if si == len(steps) {
		return true
	}
	n := len(a.sk.Nodes)
	slot := si*n + node
	if v := tab.get(slot); v != canUnknown {
		a.canHits++
		return v == canYes
	}
	tab.set(slot, canNo)
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
		tab.set(slot, canYes)
	}
	return res
}

// canDesc reports whether the descendant-axis search for steps[si:] rooted
// strictly below node can land on a matching element and complete.
func (a *approxer) canDesc(tab canTable, steps []query.Step, node, si int) bool {
	n := len(a.sk.Nodes)
	slot := (len(steps)+si)*n + node
	if v := tab.get(slot); v != canUnknown {
		a.canHits++
		return v == canYes
	}
	tab.set(slot, canNo)
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
		tab.set(slot, canYes)
	}
	return res
}
