package eval

import (
	"math"
	"testing"
	"testing/quick"

	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// TestPropConditioningPreservesSelectivity verifies the key design
// invariant of the conditioning pass: it redistributes counts (parents
// filtered by survival, surviving parents' averages rescaled) without
// changing the selectivity estimate.
func TestPropConditioningPreservesSelectivity(t *testing.T) {
	f := func(seed uint64) bool {
		tr := recursiveDoc(seed)
		st := stable.Build(tr)
		sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: st.SizeBytes() / 2})
		for _, q := range query.Generate(st, 5, query.GenOptions{Seed: int64(seed % (1 << 29))}) {
			with := Approx(sk, q, Options{})
			without := approxVariant(sk, q, Options{}, func(a *approxer) { a.conditioning = false })
			if with.Empty != without.Empty {
				t.Logf("seed %d: %s: Empty %v vs %v", seed, q, with.Empty, without.Empty)
				return false
			}
			if with.Empty {
				continue
			}
			a, b := with.Selectivity(), without.Selectivity()
			if math.Abs(a-b) > 1e-6*(1+math.Abs(b)) {
				t.Logf("seed %d: %s: selectivity %g (conditioned) vs %g", seed, q, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestConditioningFiltersUnsatisfiedParents reproduces the scenario that
// motivated the pass: a merged cluster where only a fraction of elements
// has the required child must contribute only that fraction of elements to
// the expanded answer.
func TestConditioningFiltersUnsatisfiedParents(t *testing.T) {
	// 10 a's: 3 with a b child, 7 without. After full compression the a
	// cluster has k(b) = 0.3.
	tr := xmltree.MustCompact("r(a*3(b),a*7(c))")
	st := stable.Build(tr)
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 1})
	q := query.MustParse("//a{/b}")

	with := Approx(sk, q, Options{})
	out, err := with.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	out.PreOrder(func(n *xmltree.Node) { counts[n.Label]++ })
	if counts["a"] != 3 {
		t.Fatalf("conditioned answer has %d a's, want 3", counts["a"])
	}
	if counts["b"] != 3 {
		t.Fatalf("conditioned answer has %d b's, want 3", counts["b"])
	}

	without := Approx(sk, q, Options{PaperMode: true})
	outRaw, err := without.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	raw := map[string]int{}
	outRaw.PreOrder(func(n *xmltree.Node) { raw[n.Label]++ })
	if raw["a"] != 10 {
		t.Fatalf("unconditioned answer has %d a's, want 10 (Figure 7 verbatim)", raw["a"])
	}
	if sel := with.Selectivity(); math.Abs(sel-3) > 1e-9 {
		t.Fatalf("selectivity %g, want 3", sel)
	}
}

// TestConditioningMutuallyExclusiveAlternatives: when one element's single
// child is spread across many alternative result classes (sum k = 1), the
// survival fraction is 1, not the inclusion-exclusion underestimate.
func TestConditioningMutuallyExclusiveAlternatives(t *testing.T) {
	// Ten a's, each with exactly one b child, but ten structurally
	// distinct b variants; compress until the b variants merge partially.
	tr := xmltree.MustCompact("r(a(b(x)),a(b(x,x)),a(b(x,x,x)),a(b(x*4)),a(b(x*5)),a(b(x*6)),a(b(x*7)),a(b(x*8)),a(b(x*9)),a(b(x*10)))")
	st := stable.Build(tr)
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: st.SizeBytes() / 2})
	q := query.MustParse("//a{/b}")
	r := Approx(sk, q, Options{})
	if r.Empty {
		t.Fatal("empty")
	}
	// Every a has exactly one b: the expansion must contain all 10 a's.
	out, err := r.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	out.PreOrder(func(n *xmltree.Node) { counts[n.Label]++ })
	if counts["a"] != 10 {
		t.Fatalf("answer has %d a's, want 10 (mutual-exclusivity rule)", counts["a"])
	}
	if counts["b"] != 10 {
		t.Fatalf("answer has %d b's, want 10", counts["b"])
	}
}
