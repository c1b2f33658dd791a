package serve

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"treesketch/internal/datagen"
	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// checkCounted compares, for each query, the default answer (counted, no
// result synopsis built) with the ?k=-1 one (the whole synopsis streamed),
// and the streamed one with the in-process batch answer want returns: the
// selectivity bit for bit, the result size and both flags.
func checkCounted(t *testing.T, ts *httptest.Server, qs []*query.Query, want func(q *query.Query) (sel float64, nodes int, empty, truncated bool)) {
	t.Helper()
	nonEmpty := 0
	for _, q := range qs {
		counted := getEstimate(t, ts, "/estimate?q="+urlQueryEscape(q.String()))
		streamed := getEstimate(t, ts, "/estimate?k=-1&q="+urlQueryEscape(q.String()))
		if math.Float64bits(counted.Selectivity) != math.Float64bits(streamed.Selectivity) ||
			counted.ResultNodes != streamed.ResultNodes || counted.Empty != streamed.Empty || counted.Truncated != streamed.Truncated {
			t.Fatalf("%s: counted answer %+v, streamed %+v", q, counted, streamed)
		}
		if counted.TopK != nil || streamed.TopK == nil || !streamed.TopK.Exhausted {
			t.Fatalf("%s: counted topk %+v, streamed topk %+v; want none and an exhausted stream", q, counted.TopK, streamed.TopK)
		}
		if (counted.Tier == nil) != (streamed.Tier == nil) || counted.Tier != nil && *counted.Tier != *streamed.Tier {
			t.Fatalf("%s: counted tier block %+v, streamed %+v", q, counted.Tier, streamed.Tier)
		}
		sel, nodes, empty, truncated := want(q)
		if math.Float64bits(streamed.Selectivity) != math.Float64bits(sel) || streamed.ResultNodes != nodes ||
			streamed.Empty != empty || streamed.Truncated != truncated {
			t.Fatalf("%s: streamed answer %+v, batch selectivity %v, %d nodes, empty %v, truncated %v",
				q, streamed, sel, nodes, empty, truncated)
		}
		if nodes > 1 && sel > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every answer is empty; the comparison checks nothing")
	}
}

// TestEstimateCountedMatchesStreamedStatic pins the count-only serving path
// on a static dataset: an unbudgeted /estimate answers exactly what ?k=-1
// streams, which is the batch evaluation's answer.
func TestEstimateCountedMatchesStreamedStatic(t *testing.T) {
	st := stable.Build(datagen.Generate(datagen.XMark, 3000, 1))
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 4 << 10})
	s := New(Options{Metrics: obs.NewRegistry()})
	s.AddSketch("xmark", sk)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	qs := query.Generate(st, 30, query.GenOptions{Seed: 4, PredProb: 0.3})
	checkCounted(t, ts, qs, func(q *query.Query) (float64, int, bool, bool) {
		r := eval.Approx(sk, q, eval.Options{})
		return r.Selectivity(), len(r.Nodes), r.Empty, r.Truncated
	})
}

// TestEstimateCountedMatchesStreamedLive is the same check on a live
// dataset after a run of /update inserts, where both answers merge the
// base with the delta tiers: the streamed one must equal the view's
// in-process batch estimate.
func TestEstimateCountedMatchesStreamedLive(t *testing.T) {
	doc := datagen.Generate(datagen.XMark, 2000, 1)
	qs := query.Generate(stable.Build(doc), 30, query.GenOptions{Seed: 6, PredProb: 0.3})
	reg := obs.NewRegistry()
	stk, err := tier.New(doc, tier.Options{BudgetBytes: 2 << 10, Synchronous: true, MinCompactElems: 1 << 20, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Metrics: reg})
	s.AddStack("live", stk)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var items []*xmltree.Node
	stk.Doc().PreOrder(func(n *xmltree.Node) {
		if n.Label == "item" || n.Label == "description" {
			items = append(items, n)
		}
	})
	for i := range 21 {
		parent := items[(i*37)%len(items)]
		var ur UpdateResponse
		if code := postUpdate(t, ts, UpdateRequest{Op: "insert", ParentOID: parent.OID, Subtree: "parlist(listitem(text),listitem(parlist(listitem(text))))"}, &ur); code != 200 {
			t.Fatalf("insert %d: status %d", i, code)
		}
	}
	if tiers := stk.View().Tiers(); tiers < 3 {
		t.Fatalf("%d delta tiers after the updates; the view is not tiered", tiers)
	}
	checkCounted(t, ts, qs, func(q *query.Query) (float64, int, bool, bool) {
		res, sel, _ := stk.View().EstimateContext(context.Background(), q, eval.Options{})
		return sel, len(res.Nodes), res.Empty && sel == 0, res.Truncated
	})
}
