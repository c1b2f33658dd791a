// Fixture for the ctxpoll analyzer: loops reachable from the serving
// entry points that do unbounded per-iteration work must poll ctx via
// the tickCtx pattern. Good patterns are uncommented; violations carry
// position-exact want comments.
package eval

import (
	"context"

	"fix/obs"
)

type sketch struct {
	edges []int
}

// scanAll loops over the synopsis: any caller iterating over it does
// unbounded per-iteration work.
func scanAll(sk *sketch) int {
	total := 0
	for _, e := range sk.edges {
		total += e
	}
	return total
}

type evaluator struct {
	ctx     context.Context
	ctxTick uint
}

// tickCtx charges n work units against the cancellation budget.
func (ev *evaluator) tickCtx(n int) {
	if ev.ctx == nil {
		return
	}
	ev.ctxTick += uint(n)
}

// ApproxContext is a serving root; its own unpolled sweep is the first
// violation.
func ApproxContext(ctx context.Context, h *obs.Histogram, sks []*sketch) int {
	ev := &evaluator{ctx: ctx}
	total := 0
	for _, sk := range sks { /* want "unbounded per-iteration work without polling ctx" */
		total += scanAll(sk)
	}
	total += ev.unpolledWalk(sks)
	total += ev.polledWalk(sks)
	total += ev.postChargeWalk(sks)
	total += ev.calleePollOK(sks)
	total += justifiedWalk(sks)
	total += directErrWalk(ctx, sks)
	telemetryOK(h, sks)
	return total
}

// CountContext is a serving root of its own: nothing in the fixture calls
// it, so only its registration as a root reaches its unpolled sweep.
func CountContext(ctx context.Context, sks []*sketch) int {
	total := 0
	for _, sk := range sks { /* want "unbounded per-iteration work without polling ctx" */
		total += scanAll(sk)
	}
	return total
}

// unpolledWalk is the transitive case: not itself a root, but reachable
// from one, looping over unbounded scans with no poll anywhere.
func (ev *evaluator) unpolledWalk(sks []*sketch) int {
	total := 0
	for _, sk := range sks { /* want "unbounded per-iteration work without polling ctx" */
		total += scanAll(sk)
	}
	return total
}

// polledWalk charges the budget inside the loop: the canonical pattern.
func (ev *evaluator) polledWalk(sks []*sketch) int {
	total := 0
	for _, sk := range sks {
		ev.tickCtx(1)
		total += scanAll(sk)
	}
	return total
}

// postChargeWalk polls once after the inner scans (the post-charge
// idiom); the function-level poll site covers its loops.
func (ev *evaluator) postChargeWalk(sks []*sketch) int {
	total := 0
	for _, sk := range sks {
		total += scanAll(sk)
	}
	ev.tickCtx(total)
	return total
}

// calleePollOK delegates the polling to its callee, which participates
// in the discipline itself.
func (ev *evaluator) calleePollOK(sks []*sketch) int {
	total := 0
	for _, sk := range sks {
		total += ev.polledScan(sk)
	}
	return total
}

func (ev *evaluator) polledScan(sk *sketch) int {
	total := 0
	for _, e := range sk.edges {
		ev.tickCtx(1)
		total += e
	}
	return total
}

// justifiedWalk is bounded by construction and says so at the loop.
func justifiedWalk(sks []*sketch) int {
	total := 0
	//lint:ctxpoll sks is capped by the request-body limit upstream
	for _, sk := range sks {
		total += scanAll(sk)
	}
	return total
}

// directErrWalk checks the context itself each iteration.
func directErrWalk(ctx context.Context, sks []*sketch) int {
	total := 0
	for _, sk := range sks {
		if ctx.Err() != nil {
			return total
		}
		total += scanAll(sk)
	}
	return total
}

// telemetryOK loops only over telemetry calls: the obs boundary is cut,
// so the bucket walk inside Observe does not count as unbounded work.
func telemetryOK(h *obs.Histogram, sks []*sketch) {
	for range sks {
		h.Observe(1)
	}
}
