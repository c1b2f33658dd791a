// Fixture for the mapiter analyzer's stable scope: the count-stable
// summary's class numbering feeds every fingerprint, so its map ranges are
// checked like the other determinism-critical packages'.
package stable

import "sort"

// classIDs drains the key index and sorts: the good pattern.
func classIDs(byKey map[string]int) []int {
	out := make([]int, 0, len(byKey))
	for _, id := range byKey {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// renumber hands out dense IDs in map order: flagged.
func renumber(byKey map[string]int) map[int]int {
	remap := make(map[int]int, len(byKey))
	for _, id := range byKey { /* want "map iteration order is random" */
		remap[id] = len(remap)
	}
	return remap
}
