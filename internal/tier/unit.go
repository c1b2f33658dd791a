package tier

import (
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// member is one absorbed update as a segment keeps it: the update's shape
// without any sketches, which is enough to rebuild the segment inside a
// larger merge. Members are immutable once built.
type member struct {
	seq   uint64
	sign  int // +1 insert, -1 delete
	elems int // subtree element count, always > 0

	spineLabels []string      // labels of document root .. parent
	spineOIDs   []int         // OIDs of document root .. parent (segment merge keys)
	sub         *xmltree.Node // detached copy of the subtree, in a scratch tree
	// witness records that the parent had another child with the
	// subtree root's label when the update happened. Both windows then
	// carry a childless copy of that label under the parent, so an
	// existence test the parent passed before the update still passes on
	// both sides and contributes nothing.
	witness bool
}

// segment is a delta tier: one window onto the document covering its
// members, as two tiny exact sketches. Members share spine nodes by
// ancestor OID, so updates under common ancestors do not replicate the
// ancestor chain, and the inserted and deleted subtrees see the same
// context. An open unit is a one-member segment; a seal or merge folds
// several. Segments are immutable once built.
type segment struct {
	maxSeq   uint64
	elems    int // signed element delta
	absElems int // unsigned absorbed element total

	members []member // in absorb order; a merge rebuilds from these

	// after is the window with the inserted subtrees grafted on, before
	// the same window with the deleted ones; the segment contributes
	// est(after) - est(before) to an estimate.
	after, before *sketch.Sketch
}

// newUnit snapshots an update as a one-member segment. src is the subtree
// root in the live document (for an insert, the just-adopted root; for a
// delete, the victim before detachment) and parent its parent; src is
// deep-copied, so the unit stays valid after the document moves on.
func newUnit(seq uint64, sign int, spineLabels []string, spineOIDs []int, parent, src *xmltree.Node) *segment {
	sub := xmltree.NewTree().CopySubtree(src)
	witness := false
	for _, c := range parent.Children {
		if c != src && c.Label == src.Label {
			witness = true
			break
		}
	}
	return newSegment([]member{{
		seq:         seq,
		sign:        sign,
		elems:       xmltree.SubtreeSize(sub),
		spineLabels: spineLabels,
		spineOIDs:   spineOIDs,
		sub:         sub,
		witness:     witness,
	}})
}

// newSegment builds the window over members (in absorb order). It takes
// ownership of the slice.
func newSegment(members []member) *segment {
	seg := &segment{members: members}
	after, before := xmltree.NewTree(), xmltree.NewTree()
	afterByOID, beforeByOID := map[int]*xmltree.Node{}, map[int]*xmltree.Node{}
	type witnessKey struct {
		parent int
		label  string
	}
	witnessed := map[witnessKey]bool{}
	// chain adds m's spine to t, sharing nodes by live-document OID, and
	// returns the copy of m's parent.
	chain := func(t *xmltree.Tree, byOID map[int]*xmltree.Node, m *member) *xmltree.Node {
		var parent *xmltree.Node
		for i, oid := range m.spineOIDs {
			n := byOID[oid]
			if n == nil {
				n = t.NewNode(m.spineLabels[i])
				byOID[oid] = n
				if parent == nil {
					t.Root = n
				} else {
					parent.Children = append(parent.Children, n)
				}
			}
			parent = n
		}
		return parent
	}
	// Bounded by the compaction trigger: a segment only ever folds members
	// absorbed since the last compaction boundary, and absorbs start a
	// compaction once those members' elements pass max(MinCompactElems,
	// CompactFraction x base elements). A seal on the absorb path folds at
	// most sealUnits members; the larger merges run off the request path.
	//lint:ctxpoll members are the units since the last compaction, bounded by its trigger
	for i := range members {
		m := &members[i]
		seg.elems += m.sign * m.elems
		seg.absElems += m.elems
		seg.maxSeq = max(seg.maxSeq, m.seq)
		pa, pb := chain(after, afterByOID, m), chain(before, beforeByOID, m)
		if k := (witnessKey{m.spineOIDs[len(m.spineOIDs)-1], m.sub.Label}); m.witness && !witnessed[k] {
			witnessed[k] = true
			pa.Children = append(pa.Children, after.NewNode(k.label))
			pb.Children = append(pb.Children, before.NewNode(k.label))
		}
		if m.sign > 0 {
			pa.Children = append(pa.Children, after.CopySubtree(m.sub))
		} else {
			pb.Children = append(pb.Children, before.CopySubtree(m.sub))
		}
	}
	seg.after = sketch.FromStable(stable.Build(after))
	seg.before = sketch.FromStable(stable.Build(before))
	return seg
}
