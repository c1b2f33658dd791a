package eval

import (
	"container/list"
	"context"
	"math"
	"strings"
	"testing"

	"treesketch/internal/datagen"
	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
)

// TestTopKUnboundedMatchesBatchFingerprint is the streaming determinism
// oracle: an unbounded streaming run (Limit < 0) must replay to a result
// bit-identical to the batch path — same fingerprint over every node ID,
// label, count bit, and edge bit — on every quick-grid dataset family at
// two synopsis budgets.
func TestTopKUnboundedMatchesBatchFingerprint(t *testing.T) {
	pairs := 0
	for _, ds := range datagen.All() {
		doc := datagen.Generate(ds, 2000, 1)
		st := stable.Build(doc)
		for _, div := range []int{2, 8} {
			sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: st.SizeBytes() / div})
			for qi, q := range query.Generate(st, 40, query.GenOptions{Seed: int64(div)}) {
				pairs++
				batch := Approx(sk, q, Options{})
				stream := Approx(sk, q, Options{Limit: -1})
				if stream.TopK == nil {
					t.Fatalf("%s/%d q%d %s: streaming result has no TopK info", ds, div, qi, q)
				}
				if !stream.TopK.Exhausted {
					t.Fatalf("%s/%d q%d %s: unbounded stream not exhausted (expanded %d of %d)",
						ds, div, qi, q, stream.TopK.Expanded, stream.TopK.Discovered)
				}
				if stream.TopK.ErrorBound != 0 {
					t.Fatalf("%s/%d q%d %s: exhausted stream reports ErrorBound %v",
						ds, div, qi, q, stream.TopK.ErrorBound)
				}
				if bf, sf := batch.Fingerprint(), stream.Fingerprint(); bf != sf {
					t.Fatalf("%s/%d q%d %s: fingerprint batch=%016x stream=%016x (batch %d nodes, stream %d nodes)",
						ds, div, qi, q, bf, sf, len(batch.Nodes), len(stream.Nodes))
				}
			}
		}
	}
	if pairs < 300 {
		t.Fatalf("only %d streaming-vs-batch pairs, want >= 300", pairs)
	}
}

// TestTopKErrorBoundDominatesTruncatedMass checks the bound's contract on
// raw answer mass: for every finite budget, the mass the full evaluation
// carries beyond the streamed prefix must not exceed the reported
// ErrorBound. Pruning and conditioning redistribute mass non-monotonically,
// so both sides run unpruned — the regime the bound is defined in.
func TestTopKErrorBoundDominatesTruncatedMass(t *testing.T) {
	cases, truncated, finiteBounds := 0, 0, 0
	for _, ds := range datagen.All() {
		doc := datagen.Generate(ds, 2000, 1)
		st := stable.Build(doc)
		for _, div := range []int{2, 8} {
			sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: st.SizeBytes() / div})
			for qi, q := range query.Generate(st, 25, query.GenOptions{Seed: int64(div) + 10}) {
				full := approxUnpruned(sk, q, Options{})
				fullByKey := make(map[resKey]float64, len(full.Nodes))
				for _, rn := range full.Nodes {
					fullByKey[resKey{rn.Src, rn.VarID}] = rn.Count
				}
				for _, k := range []int{1, 2, 4, 8} {
					cases++
					part := approxUnpruned(sk, q, Options{Limit: k})
					info := part.TopK
					if info == nil {
						t.Fatalf("%s/%d q%d k=%d: no TopK info", ds, div, qi, k)
					}
					if info.Expanded > k {
						t.Fatalf("%s/%d q%d k=%d: expanded %d nodes over budget", ds, div, qi, k, info.Expanded)
					}
					if !info.Exhausted && !info.WorkCapped && info.Expanded != k {
						t.Fatalf("%s/%d q%d k=%d: stopped at %d expansions with frontier left",
							ds, div, qi, k, info.Expanded)
					}
					// Per-node monotonicity: a streamed node's raw count can
					// only miss mass (paths through the unexpanded frontier),
					// never invent it.
					for _, rn := range part.Nodes {
						fc, ok := fullByKey[resKey{rn.Src, rn.VarID}]
						if !ok {
							t.Fatalf("%s/%d q%d k=%d: streamed node (src %d, var %d) absent from full result",
								ds, div, qi, k, rn.Src, rn.VarID)
						}
						if rn.Count > fc*(1+1e-9)+1e-9 {
							t.Fatalf("%s/%d q%d k=%d: node (src %d, var %d) streamed count %v > full %v",
								ds, div, qi, k, rn.Src, rn.VarID, rn.Count, fc)
						}
					}
					trueTrunc := full.TotalNodes() - part.TotalNodes()
					if trueTrunc > 1e-9 {
						truncated++
					}
					if !math.IsInf(info.ErrorBound, 1) {
						finiteBounds++
					}
					if trueTrunc > info.ErrorBound*(1+1e-9)+1e-9 {
						t.Fatalf("%s/%d q%d k=%d: true truncated mass %v exceeds ErrorBound %v (full %v, emitted %v)",
							ds, div, qi, k, trueTrunc, info.ErrorBound, full.TotalNodes(), part.TotalNodes())
					}
					if info.Exhausted {
						if tt := math.Abs(trueTrunc); tt > 1e-9 {
							t.Fatalf("%s/%d q%d k=%d: exhausted but full carries %v extra mass", ds, div, qi, k, tt)
						}
					}
				}
			}
		}
	}
	// The test is vacuous unless a healthy share of cases actually truncate
	// and carry a finite bound.
	if truncated < cases/10 {
		t.Fatalf("only %d of %d cases truncated mass — budgets too generous to test the bound", truncated, cases)
	}
	if finiteBounds < cases/2 {
		t.Fatalf("only %d of %d cases had a finite ErrorBound", finiteBounds, cases)
	}
	t.Logf("cases %d, with truncated mass %d, finite bounds %d", cases, truncated, finiteBounds)
}

// TestTopKDeadlinePartial pins the deadline contract: with an already
// expired context, the streaming path still expands the answer root —
// callers are promised at least one emitted node — and reports DeadlineHit
// rather than failing.
func TestTopKDeadlinePartial(t *testing.T) {
	sk := fuzzSketch()
	q, err := query.Parse("//a{//b{//c?},//d?}")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := ApproxContext(ctx, sk, q, Options{Limit: -1})
	info := res.TopK
	if info == nil {
		t.Fatal("no TopK info on deadline-partial result")
	}
	if info.Expanded != 1 {
		t.Fatalf("expired context expanded %d nodes, want exactly the root", info.Expanded)
	}
	if !info.DeadlineHit || info.Exhausted {
		t.Fatalf("expired context: DeadlineHit=%v Exhausted=%v, want true/false", info.DeadlineHit, info.Exhausted)
	}
	if info.Discovered <= 1 {
		t.Fatalf("root expansion discovered %d nodes, want a frontier", info.Discovered)
	}
	if res.Empty || len(res.Nodes) == 0 {
		t.Fatal("deadline-partial answer is empty")
	}
	if info.ErrorBound <= 0 {
		t.Fatalf("partial answer with frontier reports ErrorBound %v", info.ErrorBound)
	}

	// A live context on the same query must run to exhaustion and match the
	// batch fingerprint.
	live := ApproxContext(context.Background(), sk, q, Options{Limit: -1})
	if !live.TopK.Exhausted {
		t.Fatal("live unbounded run not exhausted")
	}
	if bf, sf := Approx(sk, q, Options{}).Fingerprint(), live.Fingerprint(); bf != sf {
		t.Fatalf("fingerprint batch=%016x stream=%016x", bf, sf)
	}
}

// TestTopKWorkCappedKeepsPartialAnswer pins the pool-truncation contract:
// when the shared enumeration pool dies on the root's own required-child
// edge, the stream must still answer with the root (WorkCapped, positive
// remainder bound) — not prune it to EMPTY for a child the cut enumeration
// never got to search for.
func TestTopKWorkCappedKeepsPartialAnswer(t *testing.T) {
	sk := fuzzSketch()
	q, err := query.Parse("//a{//b}")
	if err != nil {
		t.Fatal(err)
	}
	// MaxEmbeddings 1 caps the pool at one embedding, so the first edge
	// enumeration truncates almost immediately.
	res := Approx(sk, q, Options{MaxEmbeddings: 1, Limit: 4})
	info := res.TopK
	if info == nil {
		t.Fatal("no TopK info")
	}
	if !info.WorkCapped || info.Exhausted {
		t.Fatalf("WorkCapped=%v Exhausted=%v, want true/false", info.WorkCapped, info.Exhausted)
	}
	if res.Empty || len(res.Nodes) == 0 {
		t.Fatalf("work-capped stream answered EMPTY (bound %v)", info.ErrorBound)
	}
	if info.ErrorBound <= 0 {
		t.Fatalf("work-capped stream reports ErrorBound %v, want > 0", info.ErrorBound)
	}
}

// TestTopKBestFirstOrder checks the ranking actually front-loads answer
// mass: across budgets, the emitted mass must be non-decreasing in k, and
// the k=1 prefix of a query with a heavy and a light branch must carry at
// least as much mass as any single alternative expansion could.
func TestTopKBestFirstOrder(t *testing.T) {
	sk := fuzzSketch()
	q, err := query.Parse("//a{//b?,//c?}")
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, k := range []int{1, 2, 3, 4, 6, 8, -1} {
		res := approxUnpruned(sk, q, Options{Limit: k})
		if res.TopK == nil {
			t.Fatalf("k=%d: no TopK info", k)
		}
		if res.TopK.EmittedMass+1e-12 < prev {
			t.Fatalf("k=%d: emitted mass %v dropped below %v at smaller budget", k, res.TopK.EmittedMass, prev)
		}
		prev = res.TopK.EmittedMass
	}
}

// FuzzEvalTopK fuzzes the streaming iterator's pop/expand invariants on
// arbitrary parser-accepted twigs: budgets are respected, frontier
// accounting is consistent, masses are non-negative and never NaN, and an
// exhausted stream is bit-identical to the batch result with a zero bound.
func FuzzEvalTopK(f *testing.F) {
	seeds := []struct {
		src string
		k   int
	}{
		{"//a", -1}, {"//a//b", 1}, {"/a/b", 2}, {"//a{/b,//c?}", 3},
		{"//a[//b]", -1}, {"//a[/b[/c]]{//d?}", 2}, {"//b//b//b", 1},
		{"//a{//b{//c}}", 4}, {"//z", 1}, {"//a[//z]", -1},
	}
	for _, s := range seeds {
		f.Add(s.src, s.k)
	}
	sk := fuzzSketch()
	f.Fuzz(func(t *testing.T, src string, k int) {
		q, err := query.Parse(src)
		if err != nil {
			return
		}
		if k == 0 {
			k = -1 // 0 selects the batch path; fuzz the streaming one
		}
		res := Approx(sk, q, Options{MaxEmbeddings: 200, Limit: k})
		info := res.TopK
		if info == nil {
			t.Fatalf("query %q k=%d: no TopK info", q, k)
		}
		if info.Expanded < 1 {
			t.Fatalf("query %q k=%d: expanded %d, want >= 1", q, k, info.Expanded)
		}
		if k > 0 && info.Expanded > k {
			t.Fatalf("query %q k=%d: expanded %d over budget", q, k, info.Expanded)
		}
		if info.Discovered < info.Expanded {
			t.Fatalf("query %q k=%d: discovered %d < expanded %d", q, k, info.Discovered, info.Expanded)
		}
		if info.WorkCapped {
			// A work-capped stop truncated at least one enumeration, so
			// the result cannot claim batch identity even with an empty
			// frontier.
			if info.Exhausted {
				t.Fatalf("query %q k=%d: WorkCapped stream marked Exhausted", q, k)
			}
		} else if info.Exhausted != (info.Discovered == info.Expanded) {
			t.Fatalf("query %q k=%d: Exhausted=%v with %d discovered, %d expanded",
				q, k, info.Exhausted, info.Discovered, info.Expanded)
		}
		if math.IsNaN(info.EmittedMass) || info.EmittedMass < 0 {
			t.Fatalf("query %q k=%d: EmittedMass %v", q, k, info.EmittedMass)
		}
		if math.IsNaN(info.ErrorBound) || info.ErrorBound < 0 {
			t.Fatalf("query %q k=%d: ErrorBound %v", q, k, info.ErrorBound)
		}
		if info.Exhausted && info.ErrorBound != 0 {
			t.Fatalf("query %q k=%d: exhausted with ErrorBound %v", q, k, info.ErrorBound)
		}
		if sel := res.Selectivity(); math.IsNaN(sel) || math.IsInf(sel, 0) || sel < 0 {
			t.Fatalf("query %q k=%d: selectivity %v", q, k, sel)
		}
		for _, rn := range res.Nodes {
			if math.IsNaN(rn.Count) || math.IsInf(rn.Count, 0) || rn.Count < 0 {
				t.Fatalf("query %q k=%d: node count %v", q, k, rn.Count)
			}
		}
		if info.Exhausted {
			batch := Approx(sk, q, Options{MaxEmbeddings: 200})
			if bf, sf := batch.Fingerprint(), res.Fingerprint(); bf != sf {
				t.Fatalf("query %q k=%d: exhausted stream fingerprint %016x != batch %016x", q, k, sf, bf)
			}
		}
	})
}

// resetMassCache empties the process-wide mass-DP cache so a test observes
// only its own entries.
func resetMassCache() {
	massCache.Lock()
	massCache.m = make(map[massKey]*list.Element)
	massCache.lru.Init()
	massCache.Unlock()
}

// TestMassCacheTextKeyedAndBounded pins the serving-daemon memory contract
// of the mass-DP cache: entries are keyed by canonical query text (so the
// per-request *query.Query a server parses still hits), and the cache is
// LRU-bounded (so a client cycling query shapes cannot grow it without
// limit, and entries pinning a swapped-out synopsis eventually age out).
func TestMassCacheTextKeyedAndBounded(t *testing.T) {
	resetMassCache()
	defer resetMassCache()
	sk := fuzzSketch()
	vars := func(q *query.Query) ([]*query.Node, func(qi, j int) int) {
		qnodes := q.Vars()
		qidx := make(map[*query.Node]int, len(qnodes))
		for i, qn := range qnodes {
			qidx[qn] = i
		}
		return qnodes, func(qi, j int) int { return qidx[qnodes[qi].Edges[j].Child] }
	}

	// Two separately parsed queries with the same text — the serving
	// pattern — must share one entry.
	q1, err := query.Parse("//a{//b?,//d?}")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := query.Parse("//a{//b?,//d?}")
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 {
		t.Fatal("test wants distinct query pointers")
	}
	n1, i1 := vars(q1)
	n2, i2 := vars(q2)
	mm1 := massFor(sk, q1, n1, i1)
	mm2 := massFor(sk, q2, n2, i2)
	if mm1 != mm2 {
		t.Fatal("same query text from distinct pointers did not hit the cache")
	}
	massCache.Lock()
	entries := len(massCache.m)
	massCache.Unlock()
	if entries != 1 {
		t.Fatalf("cache holds %d entries after one query text, want 1", entries)
	}

	// A client cycling distinct query texts is bounded by massCacheCap, and
	// the most recent entry stays resident.
	var last *query.Query
	for i := 0; i < 3*massCacheCap; i++ {
		src := "//a" + strings.Repeat("//b", i%2+1) + "{" + strings.Repeat("/c", i/2+1) + "?}"
		q, err := query.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		qn, qi := vars(q)
		massFor(sk, q, qn, qi)
		last = q
	}
	massCache.Lock()
	entries, lruLen := len(massCache.m), massCache.lru.Len()
	massCache.Unlock()
	if entries > massCacheCap || lruLen > massCacheCap {
		t.Fatalf("cache grew to %d map / %d lru entries, cap %d", entries, lruLen, massCacheCap)
	}
	if entries != lruLen {
		t.Fatalf("map (%d) and lru (%d) out of sync", entries, lruLen)
	}
	qn, qi := vars(last)
	mmA := massFor(sk, last, qn, qi)
	mmB := massFor(sk, last, qn, qi)
	if mmA != mmB {
		t.Fatal("most recently used entry was evicted")
	}
}
