package eval

import (
	"math"
	"testing"

	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// fuzzSketch is the small fixed synopsis FuzzEvalApprox runs every input
// against: recursive labels (b under b), branching, and an imperfectly
// merged region (built from a stable synopsis of a deliberately skewed
// document), so both the certain (count-stable) and the probabilistic
// estimation paths are exercised.
func fuzzSketch() *sketch.Sketch {
	tr := xmltree.MustCompact("r(a(b(b(c),d),b(d),c),a(b(c)),a,e(d,d,d))")
	return sketch.FromStable(stable.Build(tr))
}

// FuzzEvalApprox feeds arbitrary parser-accepted twigs to both approximate
// evaluation paths and asserts the invariants that must hold for any query
// against any synopsis: no panics, estimates finite and non-negative, the
// count-only evaluation equal to the batch answer it skips building, and
// the fast path bit-identical to the reference enumeration whenever
// neither truncated.
func FuzzEvalApprox(f *testing.F) {
	seeds := []string{
		"//a", "//a//b", "/a/b", "//a{/b,//c?}", "//a[//b]",
		"//a[/b[/c]]{//d?}", "//b//b//b", "//a{//b{//c}}", "//z", "//a[//z]",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	sk := fuzzSketch()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Parse(src)
		if err != nil {
			return
		}
		// Keep enumeration bounded: fuzzing explores adversarial recursive
		// twigs and the invariants must hold under truncation too.
		fast := Approx(sk, q, Options{MaxEmbeddings: 200})
		ref := approxRef(sk, q, Options{MaxEmbeddings: 200})
		for name, r := range map[string]*Result{"fast": fast, "ref": ref} {
			sel := r.Selectivity()
			if math.IsNaN(sel) || math.IsInf(sel, 0) || sel < 0 {
				t.Fatalf("%s: query %q: selectivity %v not finite non-negative", name, q, sel)
			}
			for _, rn := range r.Nodes {
				if math.IsNaN(rn.Count) || math.IsInf(rn.Count, 0) || rn.Count < 0 {
					t.Fatalf("%s: query %q: node count %v not finite non-negative", name, q, rn.Count)
				}
			}
		}
		if c, want := Count(sk, q, Options{MaxEmbeddings: 200}), countOfResult(fast); !sameCount(c, want) {
			t.Fatalf("query %q: count-only %+v, batch %+v", q, c, want)
		}
		if fast.Truncated || ref.Truncated {
			return
		}
		if fast.Empty != ref.Empty {
			t.Fatalf("query %q: Empty fast=%v ref=%v", q, fast.Empty, ref.Empty)
		}
		if fb, rb := math.Float64bits(fast.Selectivity()), math.Float64bits(ref.Selectivity()); fb != rb {
			t.Fatalf("query %q: selectivity fast=%v ref=%v", q, fast.Selectivity(), ref.Selectivity())
		}
		if len(fast.Nodes) != len(ref.Nodes) {
			t.Fatalf("query %q: nodes fast=%d ref=%d", q, len(fast.Nodes), len(ref.Nodes))
		}
	})
}
