// Fourth package of the metricname fixture: the streaming top-k evaluation
// family. The eval.topk.* counters and histograms, the serve-side partial-
// answer counters, and the trace spans of the best-first emitter all go
// through the standard grammar.
package eval

import "fix/obs"

func registerTopK(r *obs.Registry) {
	r.Counter("eval.topk.queries")           // ok
	r.Counter("eval.topk.expanded")          // ok
	r.Counter("eval.topk.discovered")        // ok
	r.Counter("eval.topk.deadline_hits")     // ok
	r.Counter("eval.topk.exhausted")         // ok
	r.Counter("eval.topk.budget_stops")      // ok
	r.Counter("eval.topk.work_capped")       // ok
	r.Histogram("eval.topk.error_bound")     // ok
	r.Counter("serve.http.deadline_partial") // ok
	r.Counter("serve.http.tuple_overflow")   // ok

	r.Counter("eval.topK.queries")     /* want "contains .K." */
	r.Counter("eval.topk.error-bound") /* want "contains .-." */
	r.Histogram("topk")                /* want "has 1 segment" */
}

// The emitter's phase spans are timers and share the grammar.
func spans(tr *obs.Trace) {
	s := tr.StartSpan("eval.topk.query") // ok
	s.End()
	e := tr.StartSpan("eval.topk.expand") // ok
	e.End()
	p := tr.StartSpan("eval.topk.replay") // ok
	p.End()
	bad := tr.StartSpan("eval.topk.bestFirst") /* want "contains .F." */
	bad.End()
}
