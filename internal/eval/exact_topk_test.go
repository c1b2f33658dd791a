package eval

import (
	"context"
	"strings"
	"testing"

	"treesketch/internal/query"
	"treesketch/internal/xmltree"
)

// TestExactTopKNestingTree pins the exact-side budget contract: best-first
// materialization emits exactly min(k, |NT|) nodes, the frontier accounting
// is exact (EmittedMass + ErrorBound == |NT| for every k), and the
// unbounded run reproduces the full nesting tree's size.
func TestExactTopKNestingTree(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b(b(c),d),b(d),c),a(b(c)),a,e(d,d,d))")
	ix := NewIndex(doc)
	for _, src := range []string{"//a{//b?,//d?}", "//a{//b{//c?}}", "//b//b", "//a[//c]{//d?}"} {
		q, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res := Exact(ix, q)
		full, err := res.NestingTree(0)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		size := full.Size()
		if res.Empty && size != 0 {
			t.Fatalf("%s: empty result with %d-node tree", src, size)
		}

		ut, uinfo, err := res.TopKNestingTree(-1)
		if err != nil {
			t.Fatalf("%s: unbounded: %v", src, err)
		}
		if !uinfo.Exhausted || uinfo.ErrorBound != 0 {
			t.Fatalf("%s: unbounded run Exhausted=%v ErrorBound=%v", src, uinfo.Exhausted, uinfo.ErrorBound)
		}
		if ut.Size() != size {
			t.Fatalf("%s: unbounded top-k tree has %d nodes, NestingTree %d", src, ut.Size(), size)
		}

		for k := 1; k <= size+2; k++ {
			pt, info, err := res.TopKNestingTree(k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", src, k, err)
			}
			want := size
			if k < size {
				want = k
			}
			if pt.Size() != want || info.Expanded != want {
				t.Fatalf("%s k=%d: emitted %d nodes (info %d), want %d", src, k, pt.Size(), info.Expanded, want)
			}
			if got := info.EmittedMass + info.ErrorBound; got != float64(size) {
				t.Fatalf("%s k=%d: emitted %v + bound %v != exact size %d",
					src, k, info.EmittedMass, info.ErrorBound, size)
			}
			if info.Exhausted != (want == size) {
				t.Fatalf("%s k=%d: Exhausted=%v with %d of %d emitted", src, k, info.Exhausted, want, size)
			}
		}
	}
}

// TestExactContextCanceled pins the exact evaluator's cancellation
// contract: an expired context stops the evaluation (Canceled result, no
// bogus count), a live background context is untouched, and a cancellation
// between TopKNestingTree expansions returns the emitted prefix with
// DeadlineHit set — so a serving deadline can actually free an exact-mode
// admission slot.
func TestExactContextCanceled(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b(b(c),d),b(d),c),a(b(c)),a,e(d,d,d))")
	ix := NewIndex(doc)
	q, err := query.Parse("//a{//b?,//d?}")
	if err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	res := ExactContext(expired, ix, q)
	if !res.Canceled {
		t.Fatal("expired context did not cancel the exact evaluation")
	}

	live := ExactContext(context.Background(), ix, q)
	if live.Canceled || live.Empty || live.Tuples <= 0 {
		t.Fatalf("background context result = %+v, want a live exact count", live)
	}

	// Cancel after the count but before materialization: the best-first
	// loop must stop at its boundary check with at least the root emitted.
	ctx2, cancel2 := context.WithCancel(context.Background())
	r2 := ExactContext(ctx2, ix, q)
	if r2.Canceled {
		t.Fatal("live evaluation reported Canceled")
	}
	cancel2()
	nt, info, err := r2.TopKNestingTree(4)
	if err != nil {
		// A cancellation inside the subtree-size DP surfaces as the
		// context's error instead of a partial tree; both are sound.
		if err != context.Canceled {
			t.Fatalf("canceled materialization error = %v, want %v", err, context.Canceled)
		}
		return
	}
	if !info.DeadlineHit || info.Expanded < 1 {
		t.Fatalf("canceled materialization info = %+v, want DeadlineHit with >= 1 node", info)
	}
	if nt.Size() != info.Expanded {
		t.Fatalf("partial tree has %d nodes, info reports %d expanded", nt.Size(), info.Expanded)
	}
}

// countdownCtx is a deterministic stand-in for a deadline: Err() reports
// DeadlineExceeded from its limit-th poll on (0 = never), counting every
// poll either way. It makes mid-walk cancellation reproducible — a real
// timer either fires too early (before the walk starts) or too late
// (after a warm evaluation finishes) depending on machine speed.
type countdownCtx struct {
	context.Context
	polls *int
	limit int
}

func (c countdownCtx) Err() error {
	*c.polls++
	if c.limit > 0 && *c.polls >= c.limit {
		return context.DeadlineExceeded
	}
	return nil
}

// TestExactContextCanceledMidWalk pins the polling cadence on a document
// large enough that the walk's cost lives in label-position scans, not in
// recursion-entry calls: the deadline poll count must scale with traversal
// work (work-proportional tickCtx), and a context that expires mid-walk
// must cancel the evaluation. With call-count-only polling this document
// completes after a single poll, so a lapsed serving deadline would not
// free the admission slot until the document walk finished.
func TestExactContextCanceledMidWalk(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("r(")
	for i := 0; i < 4000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString("a(b(c),b(d))")
	}
	sb.WriteString(")")
	doc := xmltree.MustCompact(sb.String())
	ix := NewIndex(doc)
	q, err := query.Parse("//a[//c]{//b?,//d?}")
	if err != nil {
		t.Fatal(err)
	}

	polls := 0
	res := ExactContext(countdownCtx{Context: context.Background(), polls: &polls}, ix, q)
	if res.Canceled || res.Empty || res.Tuples <= 0 {
		t.Fatalf("live evaluation = %+v, want a real count", res)
	}
	if polls < 5 {
		t.Fatalf("evaluation over %d elements polled ctx only %d times; polling must track traversal work", doc.Size(), polls)
	}

	mid := polls / 2
	polls = 0
	res = ExactContext(countdownCtx{Context: context.Background(), polls: &polls, limit: mid}, ix, q)
	if !res.Canceled {
		t.Fatalf("context expiring at poll %d did not cancel the evaluation", mid)
	}
}
