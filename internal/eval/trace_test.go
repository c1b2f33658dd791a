package eval

import (
	"context"
	"testing"

	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// spanNames collects the distinct span names recorded on a trace.
func spanNames(tr *obs.Trace) map[string]bool {
	names := make(map[string]bool)
	for _, sp := range tr.Snapshot().Spans {
		names[sp.Name] = true
	}
	return names
}

func TestApproxContextRecordsTrace(t *testing.T) {
	doc := xmltree.MustCompact("r(e(a,b),e(a),e(b),e(a,a))")
	st := stable.Build(doc)
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 1})
	q := query.MustParse("//e[/a]")

	tr := obs.NewTrace(q.String())
	ctx := obs.ContextWithTrace(context.Background(), tr)
	traced := ApproxContext(ctx, sk, q, Options{})
	plain := Approx(sk, q, Options{})
	if traced.Selectivity() != plain.Selectivity() {
		t.Fatalf("traced selectivity %g differs from untraced %g",
			traced.Selectivity(), plain.Selectivity())
	}

	names := spanNames(tr)
	for _, want := range []string{"eval.plan", "eval.memo", "eval.emit"} {
		if !names[want] {
			t.Errorf("approx trace missing span %q (have %v)", want, names)
		}
	}
	if c := tr.Snapshot().Counters; c["approx_result_nodes"] == 0 {
		t.Errorf("approx trace counters = %v, want result nodes", c)
	}
}

// TestUntracedContextIsFree pins the disabled path: evaluating with a bare
// context records nothing and changes nothing.
func TestUntracedContextIsFree(t *testing.T) {
	doc := xmltree.MustCompact("r(e(a),e(b))")
	st := stable.Build(doc)
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 1})
	q := query.MustParse("//e")

	a := ApproxContext(context.Background(), sk, q, Options{})
	b := Approx(sk, q, Options{})
	if a.Selectivity() != b.Selectivity() {
		t.Errorf("approx selectivity with bare context = %g, want %g", a.Selectivity(), b.Selectivity())
	}
}
