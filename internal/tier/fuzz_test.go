package tier

import (
	"math"
	"testing"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// FuzzTierUpdates decodes an arbitrary byte script into a sequence of
// insert / delete / compact / query operations against a tier stack and
// asserts the invariants that must hold for any script:
//
//   - no panic anywhere in the stack;
//   - element-count conservation on every published view (base elements
//     plus signed tier deltas equals the live document size);
//   - estimates stay finite and non-negative;
//   - after a final full compaction the view fingerprints identically to
//     a fresh stack built from the final document (and hence to the
//     from-scratch stable.Build + tsbuild.Build oracle).
//
// Script encoding: each op consumes one selector byte (mod 8: 0-2 insert,
// 3-4 delete, 5 compact, 6-7 query) plus parameter bytes indexing the
// live-element list, a fixed proto table, or a fixed query table.
func FuzzTierUpdates(f *testing.F) {
	seeds := [][]byte{
		{0, 0, 0},                                                 // one insert
		{0, 1, 1, 3, 2, 6, 0},                                     // insert, delete, query
		{0, 2, 2, 0, 3, 4, 5, 6, 1},                               // inserts, compact, query
		{1, 0, 3, 1, 0, 1, 5, 3, 2, 6, 4, 5},                      // mixed with two compacts
		{3, 1, 3, 2, 3, 3, 0, 0, 5, 7, 2},                         // delete-heavy then compact
		{6, 0, 6, 1, 6, 2, 6, 3, 6, 4},                            // query-only
		{0, 4, 5, 2, 9, 0, 7, 5, 5, 0, 1, 2, 3, 9, 6, 2, 0, 3, 3}, // long mix
	}
	// Enough inserts to seal several segments, merge them, and cross a
	// compaction, then a query.
	var sealing []byte
	for i := 0; i < 48; i++ {
		sealing = append(sealing, 0, byte(7*i), byte(i))
	}
	seeds = append(seeds, append(sealing, 6, 1))
	for _, s := range seeds {
		f.Add(s)
	}
	protoStrs := []string{"a(b)", "a(b,b)", "x(y(z))", "c", "a(b(c),b)", "e(d,d,d)"}
	queryStrs := []string{"//a", "//a/b", "//x//z", "//e[/d]", "//c", "//a{/b,//c?}"}
	queries := make([]*query.Query, len(queryStrs))
	for i, s := range queryStrs {
		q, err := query.Parse(s)
		if err != nil {
			f.Fatal(err)
		}
		queries[i] = q
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		doc := xmltree.MustCompact("r(a(b,b),a(b),c(d),e(d,d))")
		st, err := New(doc, Options{
			BudgetBytes:     4096,
			Synchronous:     true,
			MinCompactElems: 64,
			CompactFraction: 0.05,
			Metrics:         obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		pop := func() (byte, bool) {
			if pos >= len(script) {
				return 0, false
			}
			b := script[pos]
			pos++
			return b, true
		}
	ops:
		for op := 0; op < 128; op++ {
			sel, ok := pop()
			if !ok {
				break
			}
			switch sel % 8 {
			case 0, 1, 2:
				pb, ok1 := pop()
				sb, ok2 := pop()
				if !ok1 || !ok2 {
					break ops
				}
				if st.Doc().Size() > 4096 {
					continue // keep scripts bounded in work, not in ops
				}
				els := liveNodes(st)
				proto := xmltree.MustCompact(protoStrs[int(sb)%len(protoStrs)])
				if _, err := st.Insert(els[int(pb)%len(els)].OID, proto); err != nil {
					t.Fatalf("op %d: insert: %v", op, err)
				}
			case 3, 4:
				vb, ok1 := pop()
				if !ok1 {
					break ops
				}
				els := liveNodes(st)
				if len(els) <= 4 {
					continue // never delete the document away
				}
				victim := els[int(vb)%(len(els)-1)+1]
				if err := st.Delete(victim.OID); err != nil {
					t.Fatalf("op %d: delete OID %d: %v", op, victim.OID, err)
				}
			case 5:
				st.Compact()
			default:
				qb, ok1 := pop()
				if !ok1 {
					break ops
				}
				q := queries[int(qb)%len(queries)]
				_, est, info := st.View().Estimate(q, eval.Options{MaxEmbeddings: 200})
				if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
					t.Fatalf("op %d: query %q: estimate %v not finite non-negative (info %+v)", op, q, est, info)
				}
			}
			v := st.View()
			if err := v.CheckConservation(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if v.Elems != st.Doc().Size() {
				t.Fatalf("op %d: view elems %d, document size %d", op, v.Elems, st.Doc().Size())
			}
		}

		if err := st.Doc().Validate(); err != nil {
			t.Fatal(err)
		}
		st.Compact()
		v := st.View()
		if v.Tiers() != 0 {
			t.Fatalf("full compaction left %d tiers", v.Tiers())
		}
		fresh := xmltree.NewTree()
		fresh.Root = fresh.CopySubtree(st.Doc().Root)
		oracle := CompactSketch(stable.Build(fresh), 4096, 0, obs.NewRegistry())
		if got, want := v.Base.Fingerprint(), oracle.Fingerprint(); got != want {
			t.Fatalf("compacted base fp %016x, rebuild oracle fp %016x", got, want)
		}
		fst, err := New(fresh, Options{BudgetBytes: 4096, Synchronous: true, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := v.Fingerprint(), fst.View().Fingerprint(); got != want {
			t.Fatalf("view fp %016x after full compaction, fresh-stack fp %016x", got, want)
		}
	})
}
