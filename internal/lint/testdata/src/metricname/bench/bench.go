// Fixture for the metricname analyzer: registration names must satisfy the
// canonical grammar, dynamic components must pass through metricname.Clean,
// and one name must not be registered under two kinds.
package bench

import (
	"fmt"

	"fix/metricname"
	"fix/obs"
)

func register(r *obs.Registry, ds string, kb int) {
	r.Counter("bench.runs")                // ok
	r.Counter("single")                    /* want "has 1 segment" */
	r.StartSpan("bench.createPool").End()  /* want "contains .P." */
	r.Gauge("bench.pool._hidden")          /* want "starts with '_'" */
	r.StartSpan("bench.phase.setup").End() // ok: spans are timers

	// Dynamic composition: a raw string component can smuggle uppercase or
	// punctuation past the grammar; Clean sanitizes it.
	r.Histogram("bench." + ds + ".latency_seconds")                   /* want "not sanitized" */
	r.Histogram("bench." + metricname.Clean(ds) + ".latency_seconds") // ok

	r.Histogram(fmt.Sprintf("bench.%s.%02dkb.latency", ds, kb))                   /* want "not sanitized" */
	r.Histogram(fmt.Sprintf("bench.%s.%02dkb.latency", metricname.Clean(ds), kb)) // ok
	r.Histogram(fmt.Sprintf("bench%d.latency", kb))                               // ok: numeric verb mid-segment

	// Same name, same kind, in two places: allowed (lookup semantics).
	r.Histogram("bench.shared.latency")
	r.Histogram("bench.shared.latency")

	// Registered again as a counter in package exporter: flagged there.
	r.Histogram("bench.dup.metric")

	// Measurement methods that share a registration method's name are not
	// registrations.
	h := r.Histogram("bench.ok.latency")
	h.Observe(1.5)

	// A justified exception for a name the grammar cannot express.
	r.Counter("legacy") //lint:metricname kept for dashboard compatibility until the Q3 migration
}
