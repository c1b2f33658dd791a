package eval

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

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

// TestApproxContextCanceled pins the batch approximate evaluator's
// cancellation contract (the ctxpoll analyzer's subject): an expired
// context stops the enumeration with a bare Canceled result and a counter
// increment, and a live background context is untouched — so a serving
// deadline actually frees the admission slot a pathological estimate is
// pinning.
func TestApproxContextCanceled(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b(c),b(d)),a(b(c)),a(e))")
	sk := sketch.FromStable(stable.Build(doc))
	q := query.MustParse("//a{//b?,//c?}")

	reg := obs.NewRegistry()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	res := ApproxContext(expired, sk, q, Options{Metrics: reg})
	if !res.Canceled {
		t.Fatal("expired context did not cancel the batch approximate evaluation")
	}
	if len(res.Nodes) != 0 {
		t.Fatalf("canceled result carries %d nodes; it must be a bare placeholder", len(res.Nodes))
	}
	if got := reg.Counter("eval.approx.canceled").Value(); got != 1 {
		t.Fatalf("eval.approx.canceled = %d, want 1", got)
	}

	live := ApproxContext(context.Background(), sk, q, Options{Metrics: reg})
	if live.Canceled || live.Empty || len(live.Nodes) == 0 {
		t.Fatalf("background context result = %+v, want a live synopsis", live)
	}
}

// TestApproxContextCanceledMidEnumeration pins the polling cadence: on a
// synopsis wide enough that the enumeration's cost lives in edge scans, the
// deadline poll count must scale with traversal work (work-proportional
// tickCtx), and a context expiring mid-enumeration must cancel the
// evaluation. It also pins that arming the poll changes no computed floats:
// the never-expiring polled run fingerprints identically to the background
// run.
func TestApproxContextCanceledMidEnumeration(t *testing.T) {
	sk := wideSketch("")
	q := query.MustParse("//a[//c]{//b?,//d?}")

	polls := 0
	res := ApproxContext(countdownCtx{Context: context.Background(), polls: &polls}, sk, q, Options{})
	if res.Canceled || res.Empty || len(res.Nodes) == 0 {
		t.Fatalf("live evaluation = %+v, want a real synopsis", res)
	}
	if polls < 3 {
		t.Fatalf("enumeration over %d synopsis nodes polled ctx only %d times; polling must track traversal work", len(sk.Nodes), polls)
	}
	background := Approx(sk, q, Options{})
	if res.Fingerprint() != background.Fingerprint() {
		t.Fatal("arming the ctx poll changed the computed result fingerprint")
	}

	mid := polls / 2
	polls = 0
	res = ApproxContext(countdownCtx{Context: context.Background(), polls: &polls, limit: mid}, sk, q, Options{})
	if !res.Canceled {
		t.Fatalf("context expiring at poll %d did not cancel the evaluation", mid)
	}
}

// wideSketch returns a synopsis whose descendant-axis enumerations scan
// thousands of synopsis edges: distinct section labels keep the label-path
// clusters from merging. The sections sit below the root r, or below
// r/x when under is "x".
func wideSketch(under string) *sketch.Sketch {
	var sb strings.Builder
	sb.WriteString("r(")
	if under != "" {
		sb.WriteString(under + "(")
	}
	for i := 0; i < 1500; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString("s" + strconv.Itoa(i) + "(a(b(c),b(d)))")
	}
	if under != "" {
		sb.WriteString(")")
	}
	sb.WriteString(")")
	return sketch.FromStable(stable.Build(xmltree.MustCompact(sb.String())))
}

// TestApproxCanceledEvaluationLeavesNoState pins that an evaluation
// canceled mid-enumeration hands a clean scratch to the next one. The
// cancellation can stop a walk with terminal sums or an existence sum
// open; were they pooled, the next evaluation would fold them into its
// first accumulation, or index past a smaller synopsis with a stale
// terminal. The predicate at x enumerates every section, so cancellations
// also land inside a branchSel walk. The follow-up evaluations run on the
// canceling goroutine, so they draw the scratch the canceled run gave back.
func TestApproxCanceledEvaluationLeavesNoState(t *testing.T) {
	wide, small := wideSketch("x"), fuzzSketch()
	next := []*query.Query{query.MustParse("//a{//b?,//c?}"), query.MustParse("//e[//c]{//d?}")}
	want := make([]uint64, len(next))
	for i, q := range next {
		want[i] = Approx(small, q, Options{}).Fingerprint()
	}
	for _, opts := range []Options{{}, {PaperMode: true}} {
		for _, src := range []string{"//a{//b?,//d?}", "/x[//c]{//a?}"} {
			q := query.MustParse(src)
			polls := 0
			ApproxContext(countdownCtx{Context: context.Background(), polls: &polls}, wide, q, opts)
			for at := 1; at < polls; at += max(1, polls/16) {
				n := 0
				res := ApproxContext(countdownCtx{Context: context.Background(), polls: &n, limit: at}, wide, q, opts)
				if !res.Canceled {
					t.Fatalf("%s canceled at poll %d of %d: not canceled", src, at, polls)
				}
				for i, nq := range next {
					if got := Approx(small, nq, Options{}).Fingerprint(); got != want[i] {
						t.Fatalf("%s canceled at poll %d (PaperMode %v): next evaluation of %s fingerprints %x, want %x",
							src, at, opts.PaperMode, nq, got, want[i])
					}
				}
			}
		}
	}
}

// TestTopKContextStaysGraceful pins the deliberate asymmetry: the streaming
// top-k path never arms the tick-panic — a context expiring mid-stream
// yields an honest partial (or empty-partial) result, never a Canceled
// abort, because partial top-k output carries its own truncation bound.
func TestTopKContextStaysGraceful(t *testing.T) {
	doc := xmltree.MustCompact("r(a(b(c),b(d)),a(b(c)),a(e))")
	sk := sketch.FromStable(stable.Build(doc))
	q := query.MustParse("//a{//b?,//c?}")

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	res := ApproxContext(expired, sk, q, Options{Limit: 3})
	if res.Canceled {
		t.Fatal("top-k path reported Canceled; it must degrade to a partial result instead")
	}
	if res.TopK == nil {
		t.Fatal("top-k result lost its TopK block under an expired context")
	}
}
