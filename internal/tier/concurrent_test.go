package tier

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// TestQueriesNeverBlockOnCompaction forces a background compaction whose
// build phase is artificially stretched to compactDelay and hammers
// estimates from several goroutines the whole time. Every estimate must
// finish far inside the build time (queries take the atomic view load, no
// lock), every loaded view must satisfy element conservation (no torn
// view), and at least one estimate must demonstrably overlap the in-flight
// compaction. Run under -race in CI.
func TestQueriesNeverBlockOnCompaction(t *testing.T) {
	const compactDelay = 300 * time.Millisecond
	opts := Options{
		BudgetBytes:     4096,
		CompactDelay:    compactDelay,
		MinCompactElems: 1 << 30, // only the explicit Compact below
		Metrics:         obs.NewRegistry(),
	}
	st := mustStack(t, "r(a(b,b),a(b),c(d),c(d,d))", opts)
	rng := testRNG(9)
	for i := 0; i < 20; i++ {
		randomOp(t, st, &rng)
	}
	q := mustQuery(t, "//a/b")

	var (
		wg          sync.WaitGroup
		overlapped  atomic.Int64
		worst       atomic.Int64 // nanoseconds
		stop        atomic.Bool
		tornOrError atomic.Pointer[string]
	)
	fail := func(msg string) {
		tornOrError.CompareAndSwap(nil, &msg)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				inFlight := st.Compacting()
				begin := time.Now()
				v := st.View()
				if err := v.CheckConservation(); err != nil {
					fail(err.Error())
					return
				}
				_, sel, _ := v.Estimate(q, eval.Options{})
				took := time.Since(begin)
				if sel < 0 {
					fail("negative merged selectivity")
					return
				}
				for {
					w := worst.Load()
					if int64(took) <= w || worst.CompareAndSwap(w, int64(took)) {
						break
					}
				}
				if inFlight {
					overlapped.Add(1)
				}
			}
		}()
	}

	// Interleave absorbs with the hammering, then force the compaction.
	for i := 0; i < 5; i++ {
		randomOp(t, st, &rng)
	}
	begin := time.Now()
	st.Compact()
	compactTook := time.Since(begin)
	stop.Store(true)
	wg.Wait()

	if msg := tornOrError.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if compactTook < compactDelay {
		t.Fatalf("compaction finished in %v, delay hook %v did not engage", compactTook, compactDelay)
	}
	if overlapped.Load() == 0 {
		t.Fatal("no estimate observed an in-flight compaction; overlap not exercised")
	}
	// The non-blocking bound: estimates must complete far inside the build
	// phase. The generous bound absorbs -race and CI scheduling noise while
	// still catching any path where a query waits out the build.
	if bound := compactDelay / 2; time.Duration(worst.Load()) > bound {
		t.Fatalf("worst estimate latency %v exceeds non-blocking bound %v", time.Duration(worst.Load()), bound)
	}
	if err := st.View().CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if st.View().Epoch == 0 {
		t.Fatal("compaction did not publish a new epoch")
	}
}

// TestConcurrentUpdatesAndQueries mixes writers and readers: one goroutine
// absorbs a seeded script (with auto-compaction enabled and slowed) while
// readers continuously load views. Checks the stack stays consistent and
// every intermediate view conserves elements. Run under -race.
func TestConcurrentUpdatesAndQueries(t *testing.T) {
	opts := Options{
		BudgetBytes:     4096,
		CompactDelay:    20 * time.Millisecond,
		MinCompactElems: 32,
		CompactFraction: 0.01,
		Metrics:         obs.NewRegistry(),
	}
	st := mustStack(t, "r(a(b,b),a(b),c(d),c(d,d))", opts)
	q := mustQuery(t, "//c/d")

	var wg sync.WaitGroup
	var stop atomic.Bool
	var failMsg atomic.Pointer[string]
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v := st.View()
				if err := v.CheckConservation(); err != nil {
					msg := err.Error()
					failMsg.CompareAndSwap(nil, &msg)
					return
				}
				v.Estimate(q, eval.Options{})
			}
		}()
	}

	rng := testRNG(17)
	for i := 0; i < 120; i++ {
		randomOp(t, st, &rng)
	}
	st.Compact()
	stop.Store(true)
	wg.Wait()

	if msg := failMsg.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if err := st.Doc().Validate(); err != nil {
		t.Fatal(err)
	}
	// The maintained summary survived the concurrent episode intact.
	fresh := xmltree.NewTree()
	fresh.Root = fresh.CopySubtree(st.Doc().Root)
	oracle := CompactSketch(stable.Build(fresh), opts.BudgetBytes, 0, obs.NewRegistry())
	if got, want := st.View().Base.Fingerprint(), oracle.Fingerprint(); got != want {
		t.Fatalf("post-episode base fp %016x, rebuild fp %016x", got, want)
	}
}

// TestMergesWaitOutCompaction holds a background compaction open with
// CompactDelay while absorbs keep sealing segments. Merges must not start
// while the compaction is in flight, every view readers load must conserve
// elements, the segments sealed meanwhile must merge once it publishes,
// and after Compact the base must fingerprint like a rebuild. A merge
// whose inputs a compaction dropped must be discarded. Run under -race.
func TestMergesWaitOutCompaction(t *testing.T) {
	const compactDelay = 400 * time.Millisecond
	opts := Options{
		BudgetBytes:     4096,
		CompactDelay:    compactDelay,
		MinCompactElems: 1 << 30, // only the explicit compactions below
		Metrics:         obs.NewRegistry(),
	}
	st := mustStack(t, "r(a(b,b),a(b),c(d),c(d,d))", opts)
	merges, seals := st.reg.Counter("tier.merges"), st.reg.Counter("tier.seals")
	rng := testRNG(23)

	var wg sync.WaitGroup
	var stop atomic.Bool
	var failMsg atomic.Pointer[string]
	q := mustQuery(t, "//a/b")
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v := st.View()
				if err := v.CheckConservation(); err != nil {
					msg := err.Error()
					failMsg.CompareAndSwap(nil, &msg)
					return
				}
				v.Estimate(q, eval.Options{})
			}
		}()
	}

	// Seal and merge a few segments, then let the background merges settle.
	for i := 0; i < 4*sealUnits; i++ {
		randomOp(t, st, &rng)
	}
	st.mu.Lock()
	for st.mergeDone != nil {
		ch := st.mergeDone
		st.mu.Unlock()
		<-ch
		st.mu.Lock()
	}
	// A merge of these segments, built off the lock the way runMerge does,
	// that the compaction below overtakes.
	stale := append([]*segment(nil), st.segments...)
	st.mu.Unlock()
	if len(stale) == 0 {
		t.Fatal("no sealed segment to merge")
	}
	merged := fold(stale)

	// Hold a compaction open while absorbs keep sealing. Until it
	// publishes (the epoch moves), the merge count must not move.
	epoch := st.View().Epoch
	compacted := make(chan struct{})
	go func() { defer close(compacted); st.Compact() }()
	for !st.Compacting() {
		time.Sleep(time.Millisecond)
	}
	mergesBefore, sealsBefore := merges.Value(), seals.Value()
	sealedDuring := int64(0)
	for i := 0; i < 4*sealUnits; i++ {
		randomOp(t, st, &rng)
		got, sealed := merges.Value(), seals.Value()
		if st.View().Epoch != epoch {
			break // published; merges may run again
		}
		if got != mergesBefore {
			t.Fatalf("a merge published while the compaction was in flight (%d -> %d merges)", mergesBefore, got)
		}
		sealedDuring = sealed - sealsBefore
	}
	if sealedDuring < 2 {
		t.Fatalf("only %d seals overlapped the %v compaction; the overlap was not exercised", sealedDuring, compactDelay)
	}
	<-compacted
	if merges.Value() == mergesBefore {
		t.Fatal("segments sealed during the compaction were not merged after it published")
	}

	st.mu.Lock()
	installed := st.installMergeLocked(stale, merged)
	st.mu.Unlock()
	if installed {
		t.Fatal("installed a merge whose inputs a compaction dropped")
	}

	st.Compact()
	stop.Store(true)
	wg.Wait()
	if msg := failMsg.Load(); msg != nil {
		t.Fatal(*msg)
	}
	v := st.View()
	if err := v.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if v.Tiers() != 0 {
		t.Fatalf("Compact left %d tiers", v.Tiers())
	}
	fresh := xmltree.NewTree()
	fresh.Root = fresh.CopySubtree(st.Doc().Root)
	oracle := CompactSketch(stable.Build(fresh), opts.BudgetBytes, 0, obs.NewRegistry())
	if got, want := v.Base.Fingerprint(), oracle.Fingerprint(); got != want {
		t.Fatalf("post-compaction base fp %016x, rebuild fp %016x", got, want)
	}
}

// TestSummaryBesideUpdates calls Summary from several goroutines while a
// writer absorbs a seeded script with background merges and compactions
// running. Every summary a reader gets must answer a count, and at
// quiescence the summary must fingerprint like a from-scratch summary of
// the maintained document. Run under -race.
func TestSummaryBesideUpdates(t *testing.T) {
	opts := Options{
		BudgetBytes:     4096,
		CompactDelay:    20 * time.Millisecond,
		MinCompactElems: 32,
		CompactFraction: 0.01,
		Metrics:         obs.NewRegistry(),
	}
	st := mustStack(t, "r(a(b,b),a(b),c(d),c(d,d))", opts)
	q := mustQuery(t, "//a{//b?}")

	var wg sync.WaitGroup
	var stop atomic.Bool
	var failMsg atomic.Pointer[string]
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if c := eval.Count(st.Summary(), q, eval.Options{}); c.Empty || c.Selectivity <= 0 {
					msg := "a summary taken beside updates answered no count"
					failMsg.CompareAndSwap(nil, &msg)
					return
				}
			}
		}()
	}

	rng := testRNG(29)
	for i := 0; i < 120; i++ {
		randomOp(t, st, &rng)
	}
	st.Compact()
	stop.Store(true)
	wg.Wait()

	if msg := failMsg.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if st.reg.Counter("tier.compactions").Value() == 0 || st.reg.Counter("tier.merges").Value() == 0 {
		t.Fatal("no compaction or no merge ran beside the summaries")
	}
	want := sketch.FromStable(stable.Build(st.Doc())).Fingerprint()
	if got := st.Summary().Fingerprint(); got != want {
		t.Fatalf("quiescent summary fp %016x, rebuild fp %016x", got, want)
	}
}
