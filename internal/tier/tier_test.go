package tier

import (
	"context"
	"math"
	"runtime"
	"testing"

	"treesketch/internal/datagen"
	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

func testOpts() Options {
	return Options{
		BudgetBytes: 1 << 16, // roomy: base stays count-stable on tiny docs
		Synchronous: true,
		Metrics:     obs.NewRegistry(),
	}
}

func mustStack(t *testing.T, compact string, opts Options) *Stack {
	t.Helper()
	st, err := New(xmltree.MustCompact(compact), opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustQuery(t *testing.T, s string) *query.Query {
	t.Helper()
	q, err := query.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestStackValidation(t *testing.T) {
	if _, err := New(nil, testOpts()); err == nil {
		t.Fatal("accepted nil document")
	}
	st := mustStack(t, "r(a(b),c)", testOpts())
	if _, err := st.Insert(9999, xmltree.MustCompact("x")); err == nil {
		t.Fatal("accepted unknown parent OID")
	}
	if err := st.Delete(9999); err == nil {
		t.Fatal("accepted unknown victim OID")
	}
	if err := st.Delete(st.Doc().Root.OID); err == nil {
		t.Fatal("accepted root deletion")
	}
	if _, err := st.Insert(st.Doc().Root.OID, xmltree.NewTree()); err == nil {
		t.Fatal("accepted empty subtree")
	}
}

func TestStackAbsorbAndConservation(t *testing.T) {
	st := mustStack(t, "r(a(b,b),a(b),c)", testOpts())
	v := st.View()
	if v.Elems != 7 || v.BaseElems != 7 || v.Tiers() != 0 {
		t.Fatalf("initial view: elems=%d base=%d tiers=%d", v.Elems, v.BaseElems, v.Tiers())
	}

	oid, err := st.Insert(st.Doc().Root.OID, xmltree.MustCompact("a(b,b,b)"))
	if err != nil {
		t.Fatal(err)
	}
	v = st.View()
	if v.Elems != 11 || v.DeltaElems() != 4 || v.Tiers() == 0 {
		t.Fatalf("after insert: elems=%d delta=%d tiers=%d", v.Elems, v.DeltaElems(), v.Tiers())
	}
	if err := v.CheckConservation(); err != nil {
		t.Fatal(err)
	}

	if err := st.Delete(oid); err != nil {
		t.Fatal(err)
	}
	v = st.View()
	if v.Elems != 7 || v.DeltaElems() != 0 {
		t.Fatalf("after delete: elems=%d delta=%d", v.Elems, v.DeltaElems())
	}
	if err := v.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := st.Doc().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStackDeltaEstimateExactOnChainInsert checks the spine-subtraction
// arithmetic on a case where the delta must be exact: a count-stable base
// and an inserted subtree whose matches never pair with off-spine base
// elements.
func TestStackDeltaEstimateExactOnChainInsert(t *testing.T) {
	st := mustStack(t, "r(a(b),a(b))", testOpts())
	q := mustQuery(t, "//a/b")
	_, got, info := st.EstimateContext(t.Context(), q, eval.Options{})
	if got != 2 {
		t.Fatalf("pre-update estimate %v, want 2 (info %+v)", got, info)
	}
	if _, err := st.Insert(st.Doc().Root.OID, xmltree.MustCompact("a(b,b)")); err != nil {
		t.Fatal(err)
	}
	_, got, info = st.EstimateContext(t.Context(), q, eval.Options{})
	if got != 4 {
		t.Fatalf("post-insert estimate %v, want 4 (base %v delta %v)", got, info.BaseSelectivity, info.Delta)
	}
	// The base alone must still answer 2: it has not been compacted.
	if info.BaseSelectivity != 2 || info.Delta != 2 {
		t.Fatalf("contributions base=%v delta=%v, want 2+2", info.BaseSelectivity, info.Delta)
	}
}

// TestTierCountsOpenUnits: every open unit is a tier of its own, which the
// estimate evaluates, so the view, the estimate's Info and the tier.depth
// gauge (base plus tiers) all count it.
func TestTierCountsOpenUnits(t *testing.T) {
	opts := testOpts()
	opts.MinCompactElems = 1 << 30
	st := mustStack(t, "r(a(b),a(b))", opts)
	for i := 0; i < 3; i++ {
		if _, err := st.Insert(st.Doc().Root.OID, xmltree.MustCompact("a(b)")); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.View().Tiers(); got != 3 {
		t.Errorf("View.Tiers() = %d after 3 unsealed inserts, want 3", got)
	}
	if _, _, info := st.EstimateContext(t.Context(), mustQuery(t, "//a/b"), eval.Options{}); info.Tiers != 3 {
		t.Errorf("Info.Tiers = %d, want 3", info.Tiers)
	}
	if got := st.reg.Gauge("tier.depth").Value(); got != 4 {
		t.Errorf("tier.depth = %d, want 4", got)
	}
}

// TestStackSealing absorbs enough updates to seal many segments and
// checks the merge policy's shape: every view conserves elements, the open
// tier stays under the seal bound, merges keep the segment count
// logarithmic, and the segments hold every absorbed unit exactly once, in
// absorb order.
func TestStackSealing(t *testing.T) {
	opts := testOpts()
	// Keep compaction out of the way; this test is about seals and merges.
	opts.MinCompactElems = 1 << 30
	st := mustStack(t, "r(a(b),a(b))", opts)
	rng := testRNG(7)
	const ops = 200
	maxSealed := 0
	for i := 0; i < ops; i++ {
		randomOp(t, st, &rng)
		v := st.View()
		if err := v.CheckConservation(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		maxSealed = max(maxSealed, v.sealed)
	}
	v := st.View()
	if v.sealed == 0 {
		t.Fatalf("no segments sealed after %d ops", ops)
	}
	if open := len(v.tiers) - v.sealed; open >= sealUnits {
		t.Fatalf("unsealed tier holds %d units, seal bound %d", open, sealUnits)
	}
	if got := st.reg.Counter("tier.seals").Value(); got != ops/sealUnits {
		t.Fatalf("tier.seals = %d, want %d", got, ops/sealUnits)
	}
	if got := st.reg.Counter("tier.merges").Value(); got == 0 {
		t.Fatal("tier.merges not incremented")
	}
	// Without merges the 25 seals would leave 25 segments. The merge
	// policy never holds more than 3 of them over this many seals.
	if maxSealed > 3 {
		t.Fatalf("%d sealed segments over %d ops, want at most 3", maxSealed, ops)
	}
	var seq uint64
	for i, seg := range v.tiers {
		if i >= v.sealed && len(seg.members) != 1 {
			t.Fatalf("open unit %d holds %d members", i, len(seg.members))
		}
		for _, m := range seg.members {
			seq++
			if m.seq != seq {
				t.Fatalf("tier %d holds unit %d where unit %d belongs", i, m.seq, seq)
			}
		}
		if seg.maxSeq != seq {
			t.Fatalf("tier %d: maxSeq %d, last member %d", i, seg.maxSeq, seq)
		}
	}
	if seq != ops {
		t.Fatalf("tiers hold %d units, %d absorbed", seq, ops)
	}
}

// TestStackCompactionMatchesFreshStack is the core determinism identity:
// after a full compaction, the stack's view fingerprints identically to a
// brand-new stack built from the final document state.
func TestStackCompactionMatchesFreshStack(t *testing.T) {
	opts := testOpts()
	opts.BudgetBytes = 2048 // force real TSBuild compression
	st := mustStack(t, "r(a(b,b),a(b),c(d),c(d,d))", opts)
	rng := testRNG(42)
	for i := 0; i < 25; i++ {
		randomOp(t, st, &rng)
	}
	st.Compact()
	v := st.View()
	if v.Tiers() != 0 || v.DeltaElems() != 0 {
		t.Fatalf("post-compaction view still has %d tiers, delta %d", v.Tiers(), v.DeltaElems())
	}
	if err := v.CheckConservation(); err != nil {
		t.Fatal(err)
	}

	fresh := xmltree.NewTree()
	fresh.Root = fresh.CopySubtree(st.Doc().Root)
	oracle := CompactSketch(stable.Build(fresh), opts.BudgetBytes, 0, obs.NewRegistry())
	if got, want := v.Base.Fingerprint(), oracle.Fingerprint(); got != want {
		t.Fatalf("compacted base fp %016x, from-scratch rebuild fp %016x", got, want)
	}

	fst, err := New(fresh, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.Fingerprint(), fst.View().Fingerprint(); got != want {
		t.Fatalf("view fp %016x, fresh-stack fp %016x", got, want)
	}
	if got := st.reg.Counter("tier.compactions").Value(); got == 0 {
		t.Fatal("tier.compactions not incremented")
	}
}

// TestStackFingerprintAcrossWorkers replays one script under GOMAXPROCS 1
// and 4, which sets the compactions' TSBuild worker count: every published
// view must fingerprint identically, which is the property the CI
// GOMAXPROCS diff asserts.
func TestStackFingerprintAcrossWorkers(t *testing.T) {
	replay := func(procs int) []uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		opts := testOpts()
		opts.BudgetBytes = 2048
		opts.MinCompactElems = 48 // compact eagerly so the script crosses epochs
		opts.CompactFraction = 0.01
		st := mustStack(t, "r(a(b,b),a(b),c(d),c(d,d))", opts)
		rng := testRNG(3)
		var fps []uint64
		for i := 0; i < 30; i++ {
			randomOp(t, st, &rng)
			fps = append(fps, st.View().Fingerprint())
		}
		st.Compact()
		return append(fps, st.View().Fingerprint())
	}
	a, b := replay(1), replay(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d of %d (the last is post-compaction): GOMAXPROCS=1 fp %016x, GOMAXPROCS=4 fp %016x", i, len(a), a[i], b[i])
		}
	}
}

func TestStackTelemetryNamesClean(t *testing.T) {
	reg := obs.NewRegistry()
	opts := testOpts()
	opts.Metrics = reg
	st := mustStack(t, "r(a(b))", opts)
	if _, err := st.Insert(st.Doc().Root.OID, xmltree.MustCompact("a(b)")); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	if errs := reg.NameErrors(); len(errs) != 0 {
		t.Fatalf("metric name errors: %v", errs)
	}
}

// TestStackEstimateContextCanceled pins cancellation through the tiered
// view: an expired context cancels the merged estimate (no partial
// base+delta arithmetic escapes as an answer), while a live context on the
// same stack still merges normally.
func TestStackEstimateContextCanceled(t *testing.T) {
	st := mustStack(t, "r(a(b),a(b))", testOpts())
	if _, err := st.Insert(st.Doc().Root.OID, xmltree.MustCompact("a(b,b)")); err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, "//a/b")

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	res, sel, _ := st.EstimateContext(expired, q, eval.Options{})
	if !res.Canceled {
		t.Fatal("expired context did not cancel the tiered estimate")
	}
	if sel != 0 {
		t.Fatalf("canceled estimate leaked selectivity %v, want 0", sel)
	}

	res, sel, _ = st.EstimateContext(t.Context(), q, eval.Options{})
	if res.Canceled || sel != 4 {
		t.Fatalf("live estimate after a canceled one: canceled=%v sel=%v, want 4", res.Canceled, sel)
	}
}

// TestViewCountMatchesEstimate pins the count-only view estimate to the
// materializing one: after a script of random inserts and deletes has
// left sealed segments and open units, CountContext's merged float equals
// EstimateContext's bit for bit on every generated twig, its Info is the
// same, and its count reports the base answer's size and flags. Both
// stack entries count toward tier.estimates, and an expired context
// cancels the count like the estimate.
func TestViewCountMatchesEstimate(t *testing.T) {
	opts := testOpts()
	opts.BudgetBytes = 2 << 10 // merged: the base estimates are approximate
	opts.MinCompactElems = 1 << 20
	doc := datagen.Generate(datagen.XMark, 2000, 1)
	st, err := New(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries := query.Generate(stable.Build(doc), 60, query.GenOptions{Seed: 9, PredProb: 0.3})
	rng := testRNG(3)
	for range 45 { // five seals, then five open units
		randomOp(t, st, &rng)
	}
	v := st.View()
	if v.Tiers() < 3 {
		t.Fatalf("%d delta tiers; the script no longer leaves a tiered view", v.Tiers())
	}
	moved := 0
	for _, q := range queries {
		res, want, wantInfo := v.EstimateContext(t.Context(), q, eval.Options{})
		if wantInfo.Delta != 0 {
			moved++
		}
		c, got, info := v.CountContext(t.Context(), q, eval.Options{})
		if math.Float64bits(got) != math.Float64bits(want) || info != wantInfo {
			t.Fatalf("%s: count %v %+v, estimate %v %+v", q, got, info, want, wantInfo)
		}
		if c.Nodes != len(res.Nodes) || c.Empty != res.Empty || c.Truncated != res.Truncated || c.Canceled || res.Canceled ||
			math.Float64bits(c.Selectivity) != math.Float64bits(res.Selectivity()) {
			t.Fatalf("%s: base count %+v does not describe the base result (%d nodes, empty %v, truncated %v)",
				q, c, len(res.Nodes), res.Empty, res.Truncated)
		}
	}
	if moved == 0 {
		t.Fatal("no twig's estimate moved with the delta tiers; the merge went unchecked")
	}

	before := opts.Metrics.Counter("tier.estimates").Value()
	st.EstimateContext(t.Context(), queries[0], eval.Options{})
	st.CountContext(t.Context(), queries[0], eval.Options{})
	if got := opts.Metrics.Counter("tier.estimates").Value() - before; got != 2 {
		t.Fatalf("tier.estimates rose by %d over one estimate and one count, want 2", got)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if c, sel, _ := st.CountContext(expired, queries[0], eval.Options{}); !c.Canceled || sel != 0 {
		t.Fatalf("expired context: count %+v, merged %v; want Canceled and 0", c, sel)
	}
}
