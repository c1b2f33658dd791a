package eval

import "math"

// pathTrie is the dedup structure behind enumFast's duplicate detection:
// an open-addressed hash table mapping (prefix path ID, synopsis node)
// keys to dense path IDs, so the DFS identifies its entire current node
// stack by a single integer. Slots are epoch-stamped — reset is an epoch
// bump, not a wipe — and the table lives in the pooled evaluation
// scratch, reused across enumerations and queries, so steady-state
// operation allocates nothing. A flat Go map would serve the same purpose
// at roughly 3-4x the per-op cost, which is material because the
// heavy-twig tail is spent almost entirely in this loop.
type pathTrie struct {
	keys  []uint64
	vals  []int32
	ep    []int32
	epoch int32
	used  int

	// Emission dedup, indexed by the dense path IDs vals hands out:
	// seenEp[id] == epoch marks the path as already emitted, seenVal[id]
	// is its emission index (needed to merge step assignments).
	seenEp  []int32
	seenVal []int32
}

const trieHashMult = 0x9E3779B97F4A7C15 // 2^64 / golden ratio

// reset starts a new enumeration: all existing entries become stale via
// the epoch bump.
func (t *pathTrie) reset() {
	if len(t.keys) == 0 {
		const initCap = 1 << 8
		t.keys = make([]uint64, initCap)
		t.vals = make([]int32, initCap)
		t.ep = make([]int32, initCap)
	}
	if t.epoch == math.MaxInt32 {
		clear(t.ep)
		clear(t.seenEp)
		t.epoch = 0
	}
	t.epoch++
	t.used = 0
}

// id returns the dense path ID of key, assigning the next free ID (via
// *nextID) on first sight.
func (t *pathTrie) id(key uint64, nextID *int32) int32 {
	if t.used*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := len(t.keys) - 1
	h := key * trieHashMult
	i := int(h>>32) & mask
	for {
		if t.ep[i] != t.epoch {
			t.ep[i] = t.epoch
			t.keys[i] = key
			id := *nextID
			*nextID++
			t.vals[i] = id
			t.used++
			return id
		}
		if t.keys[i] == key {
			return t.vals[i]
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table, re-inserting only the current epoch's entries
// (the epoch itself is preserved: fresh slots are zero-stamped and epochs
// start at 1, so stale reads cannot collide).
func (t *pathTrie) grow() {
	oldKeys, oldVals, oldEp, oldEpoch := t.keys, t.vals, t.ep, t.epoch
	n := len(oldKeys) * 2
	t.keys = make([]uint64, n)
	t.vals = make([]int32, n)
	t.ep = make([]int32, n)
	mask := n - 1
	for j, e := range oldEp {
		if e != oldEpoch {
			continue
		}
		key := oldKeys[j]
		h := key * trieHashMult
		i := int(h>>32) & mask
		for t.ep[i] == t.epoch {
			i = (i + 1) & mask
		}
		t.ep[i] = t.epoch
		t.keys[i] = key
		t.vals[i] = oldVals[j]
	}
}

// markEmitted records path id as emitted with the given emission index and
// reports whether it had already been emitted this enumeration (returning
// the previous index).
func (t *pathTrie) markEmitted(id int32, emitIdx int) (prev int32, dup bool) {
	i := int(id)
	if i >= len(t.seenEp) {
		n := max(256, len(t.seenEp)*2)
		for n <= i {
			n *= 2
		}
		se := make([]int32, n)
		copy(se, t.seenEp)
		t.seenEp = se
		sv := make([]int32, n)
		copy(sv, t.seenVal)
		t.seenVal = sv
	}
	if t.seenEp[i] == t.epoch {
		return t.seenVal[i], true
	}
	t.seenEp[i] = t.epoch
	t.seenVal[i] = int32(emitIdx)
	return 0, false
}

// bytes is the memory the trie's tables hold.
func (t *pathTrie) bytes() int {
	return capBytes(t.keys) + capBytes(t.vals) + capBytes(t.ep) + capBytes(t.seenEp) + capBytes(t.seenVal)
}
