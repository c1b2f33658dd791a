package tier

import (
	"context"
	"fmt"

	"treesketch/internal/eval"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
)

// View is one immutable published state of a Stack: a compacted base sketch
// plus the delta tiers absorbed since that base was built. Views are never
// mutated after publication; estimates read whichever view was current when
// they started and are therefore wait-free with respect to updates and
// compactions.
type View struct {
	// Base is the compacted base sketch (TSBuild output).
	Base *sketch.Sketch
	// BaseElems is the document element count the base summarizes.
	BaseElems int
	// Elems is the live document element count at publication. The
	// conservation invariant Elems == BaseElems + signed delta elements is
	// what the fuzz and concurrency layers assert against torn views.
	Elems int
	// Epoch counts compactions applied; Seq counts updates absorbed.
	Epoch uint64
	Seq   uint64

	tiers  []*segment // sealed segments, then the open units (one member each)
	sealed int        // how many of tiers are sealed segments
}

// Info reports how a merged estimate was put together.
type Info struct {
	// BaseSelectivity is the estimate from the base sketch alone.
	BaseSelectivity float64
	// Delta is the signed correction contributed by the delta tiers.
	Delta float64
	// DeltaElems is the signed element delta the tiers carry vs the base.
	DeltaElems int
	// Tiers is the number of delta tiers consulted: the sealed segments
	// plus the open units, each of which is its own tier.
	Tiers int
	// Epoch is the view's compaction epoch.
	Epoch uint64
}

// DeltaElems returns the signed element delta the view's tiers carry.
func (v *View) DeltaElems() int {
	d := 0
	for _, seg := range v.tiers {
		d += seg.elems
	}
	return d
}

// Tiers reports the number of delta tiers in the view: sealed segments
// plus open units. An estimate evaluates two sketches per tier.
func (v *View) Tiers() int { return len(v.tiers) }

// CheckConservation verifies the view's element accounting: the published
// live count must equal the base count plus the signed tier deltas. A
// torn view (base from one state, tiers from another) cannot satisfy it.
func (v *View) CheckConservation() error {
	if got := v.BaseElems + v.DeltaElems(); got != v.Elems {
		return fmt.Errorf("tier: view conservation violated: base %d + delta %d = %d, published %d",
			v.BaseElems, v.DeltaElems(), got, v.Elems)
	}
	return nil
}

// EstimateContext answers q over base+delta. The returned Result is the
// base evaluation (its result synopsis drives answer shapes and top-k);
// the float is the merged selectivity: the base estimate plus each tier's
// est(after) - est(before), clamped at zero. opts applies to the base
// evaluation; delta sketches are tiny and always evaluated in batch mode.
func (v *View) EstimateContext(ctx context.Context, q *query.Query, opts eval.Options) (*eval.Result, float64, Info) {
	res := eval.ApproxContext(ctx, v.Base, q, opts)
	if res.Canceled {
		// The base evaluation aborted at the deadline: there is no synopsis
		// to merge deltas into, so skip the tier sweeps entirely and let the
		// caller route the cancellation.
		return res, 0, Info{DeltaElems: v.DeltaElems(), Tiers: v.Tiers(), Epoch: v.Epoch}
	}
	info := Info{
		BaseSelectivity: res.Selectivity(),
		DeltaElems:      v.DeltaElems(),
		Tiers:           v.Tiers(),
		Epoch:           v.Epoch,
	}
	dopts := eval.Options{MaxEmbeddings: opts.MaxEmbeddings, Metrics: opts.Metrics}
	canceled := false
	sel := func(sk *sketch.Sketch) float64 {
		if sk == nil || canceled {
			return 0
		}
		dres := eval.ApproxContext(ctx, sk, q, dopts)
		if dres.Canceled {
			// A canceled delta sweep poisons the merge: short-circuit the
			// remaining sketches (each would just re-observe the same expired
			// ctx) and cancel the whole estimate — a base answer missing its
			// deltas would silently misreport a live dataset.
			canceled = true
			return 0
		}
		return dres.Selectivity()
	}
	for _, seg := range v.tiers {
		info.Delta += sel(seg.after) - sel(seg.before)
	}
	if canceled {
		res.Canceled = true
		return res, 0, info
	}
	merged := info.BaseSelectivity + info.Delta
	if merged < 0 {
		merged = 0
	}
	return res, merged, info
}

// Estimate is EstimateContext without request-scoped telemetry.
func (v *View) Estimate(q *query.Query, opts eval.Options) (*eval.Result, float64, Info) {
	return v.EstimateContext(context.Background(), q, opts)
}

// Fingerprint extends sketch.Fingerprint to the whole tier stack: the base
// fingerprint plus every tier's structure and statistics, folded in absorb
// order. Two stacks that absorbed the same update script have equal view
// fingerprints regardless of worker count or GOMAXPROCS; a fully compacted
// view fingerprints identically to a fresh stack built from the final
// document, which is the oracle the differential and fuzz layers check.
func (v *View) Fingerprint() uint64 {
	fp := func(sk *sketch.Sketch) uint64 {
		if sk == nil {
			return 0
		}
		return sk.Fingerprint()
	}
	tokens := []uint64{
		fp(v.Base),
		uint64(int64(v.BaseElems)),
		uint64(int64(v.Elems)),
		uint64(v.sealed),
		uint64(len(v.tiers) - v.sealed),
	}
	for _, seg := range v.tiers {
		tokens = append(tokens,
			uint64(int64(seg.elems)), uint64(seg.maxSeq),
			fp(seg.after), fp(seg.before))
	}
	return sketch.Combine(tokens...)
}
