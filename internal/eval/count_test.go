package eval

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"treesketch/internal/datagen"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// countOfResult is what a count-only evaluation must report for the
// batch answer r.
func countOfResult(r *Result) CountResult {
	c := CountResult{Nodes: len(r.Nodes), Empty: r.Empty, Truncated: r.Truncated, Canceled: r.Canceled}
	if !r.Canceled {
		c.Selectivity = r.Selectivity()
	}
	return c
}

// sameCount reports whether two counts agree exactly, the selectivity bit
// for bit.
func sameCount(a, b CountResult) bool {
	return math.Float64bits(a.Selectivity) == math.Float64bits(b.Selectivity) &&
		a.Nodes == b.Nodes && a.Empty == b.Empty && a.Truncated == b.Truncated && a.Canceled == b.Canceled
}

// approxMetrics is the eval.approx.* part of a registry snapshot that does
// not depend on the clock: every counter and histogram, and each phase
// timer's observation count.
func approxMetrics(reg *obs.Registry) map[string]string {
	snap := reg.Snapshot()
	out := make(map[string]string)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "eval.approx.") {
			out[name] = fmt.Sprint(v)
		}
	}
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "eval.approx.") {
			out[name] = fmt.Sprintf("%d %x %x %x %v", h.Count, math.Float64bits(h.Sum), math.Float64bits(h.Min), math.Float64bits(h.Max), h.Buckets)
		}
	}
	for name, tm := range snap.Timers {
		if strings.HasPrefix(name, "eval.approx.") {
			out[name] = fmt.Sprintf("%d observations", tm.Count)
		}
	}
	return out
}

// countFixture is one set of synopses with the queries to count on them.
type countFixture struct {
	name    string
	sks     []*sketch.Sketch
	queries []*query.Query
}

// countFixtures returns IMDB, XMark and SwissProt documents, each as its
// count-stable synopsis and at two TSBuild budgets, with generated twigs
// plus one whose label no synopsis has; and a tiny synopsis whose twigs
// are empty only after pruning drops the root.
func countFixtures() []countFixture {
	var out []countFixture
	for _, ds := range []datagen.Dataset{datagen.IMDB, datagen.XMark, datagen.SwissProt} {
		st := stable.Build(datagen.Generate(ds, 3000, 1))
		f := countFixture{name: ds.String(), sks: []*sketch.Sketch{sketch.FromStable(st)}}
		for _, div := range []int{4, 16} {
			sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: st.SizeBytes() / div})
			f.sks = append(f.sks, sk)
		}
		f.queries = append(query.Generate(st, 40, query.GenOptions{Seed: 5, MaxFanout: 3, MaxQueryDepth: 3, MaxSteps: 3, PredProb: 0.4}),
			query.MustParse("//nosuchlabel{//a?}"))
		out = append(out, f)
	}
	out = append(out, countFixture{
		name:    "pruned",
		sks:     []*sketch.Sketch{sketch.FromStable(stable.Build(xmltree.MustCompact("r(a(b),a(c))")))},
		queries: []*query.Query{query.MustParse("//a{/b,/c}"), query.MustParse("//a[/b]{/c}"), query.MustParse("/r{//a{/b,/c}}")},
	})
	return out
}

// TestCountMatchesApprox is the count-only path's oracle: on every
// countFixtures synopsis, under the default options, PaperMode and a small
// MaxEmbeddings that truncates, Count answers exactly what the batch
// Approx answers (selectivity bits, node count, Empty, Truncated), reports
// the same eval.approx.* metrics into a fresh registry, and leaves the
// same counters and spans on a request trace.
func TestCountMatchesApprox(t *testing.T) {
	optSets := []Options{{}, {PaperMode: true}, {MaxEmbeddings: 50}}
	truncated, empty := 0, 0
	for _, f := range countFixtures() {
		ds, queries := f.name, f.queries
		for si, sk := range f.sks {
			for _, o := range optSets {
				full, counted := obs.NewRegistry(), obs.NewRegistry()
				for qi, q := range queries {
					o.Metrics = full
					ftr := obs.NewTrace(q.String())
					want := countOfResult(ApproxContext(obs.ContextWithTrace(context.Background(), ftr), sk, q, o))
					o.Metrics = counted
					ctr := obs.NewTrace(q.String())
					got := CountContext(obs.ContextWithTrace(context.Background(), ctr), sk, q, o)
					if !sameCount(got, want) {
						t.Fatalf("%s sketch %d %+v q%d %s: count %+v, batch %+v", ds, si, o, qi, q, got, want)
					}
					if fc, cc := ftr.Snapshot().Counters, ctr.Snapshot().Counters; !reflect.DeepEqual(fc, cc) {
						t.Fatalf("%s sketch %d q%d %s: trace counters: count %v, batch %v", ds, si, qi, q, cc, fc)
					}
					if fs, cs := spanNames(ftr), spanNames(ctr); !reflect.DeepEqual(fs, cs) {
						t.Fatalf("%s sketch %d q%d %s: trace spans: count %v, batch %v", ds, si, qi, q, cs, fs)
					}
					if want.Truncated {
						truncated++
					}
					if want.Empty {
						empty++
					}
				}
				if fm, cm := approxMetrics(full), approxMetrics(counted); !reflect.DeepEqual(fm, cm) {
					t.Fatalf("%s sketch %d %+v: eval.approx metrics differ:\ncount %v\nbatch %v", ds, si, o, cm, fm)
				}
			}
		}
	}
	// The oracle must see both flags, or it checks them vacuously.
	if truncated == 0 || empty == 0 {
		t.Fatalf("%d truncated and %d empty answers; the fixtures no longer exercise both flags", truncated, empty)
	}
}

// TestCountCanceledAtEveryPoll cancels a count-only evaluation at each of
// its ctx polls in turn, on a synopsis wide enough that the polls land
// inside enumerations and predicate walks: every run must answer
// Canceled, and the evaluations after it, which draw the scratch it gave
// back, must answer as on a fresh pool.
func TestCountCanceledAtEveryPoll(t *testing.T) {
	wide, small := wideSketch("x"), fuzzSketch()
	next := []*query.Query{query.MustParse("//a{//b?,//c?}"), query.MustParse("//e[//c]{//d?}")}
	want := make([]uint64, len(next))
	wantCount := make([]CountResult, len(next))
	for i, q := range next {
		want[i] = Approx(small, q, Options{}).Fingerprint()
		wantCount[i] = Count(small, q, Options{})
	}
	for _, opts := range []Options{{}, {PaperMode: true}} {
		for _, src := range []string{"//a{//b?,//d?}", "/x[//c]{//a?}"} {
			q := query.MustParse(src)
			polls := 0
			if c := CountContext(countdownCtx{Context: context.Background(), polls: &polls}, wide, q, opts); c.Canceled || c.Nodes == 0 {
				t.Fatalf("%s: uncanceled count %+v, want a live answer", src, c)
			}
			if polls < 3 {
				t.Fatalf("%s: only %d polls; the fixture no longer cancels mid-walk", src, polls)
			}
			for at := 1; at < polls; at++ {
				n := 0
				c := CountContext(countdownCtx{Context: context.Background(), polls: &n, limit: at}, wide, q, opts)
				if !c.Canceled || !sameCount(c, CountResult{Canceled: true}) {
					t.Fatalf("%s canceled at poll %d of %d: answered %+v, want a bare Canceled", src, at, polls, c)
				}
				for i, nq := range next {
					if got := Approx(small, nq, Options{}).Fingerprint(); got != want[i] {
						t.Fatalf("%s canceled at poll %d (PaperMode %v): next evaluation of %s fingerprints %x, want %x",
							src, at, opts.PaperMode, nq, got, want[i])
					}
					if got := Count(small, nq, Options{}); !sameCount(got, wantCount[i]) {
						t.Fatalf("%s canceled at poll %d (PaperMode %v): next count of %s is %+v, want %+v",
							src, at, opts.PaperMode, nq, got, wantCount[i])
					}
				}
			}
		}
	}
}

// TestCountAllocatesNothing pins the count-only path's point: once the
// scratch pool is warm, a counted evaluation allocates nothing, because
// the approxer, the plan and the Section 4.4 pass all live in the pooled
// scratch and no answer synopsis is built. The twigs include the heavy
// first one, which enumerates thousands of embeddings; the second is left
// out because its scratch grows past scratchCapBytes, and a scratch that
// large is dropped instead of pooled, by design.
func TestCountAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	sk := xmarkSketches(10000)[0]
	var qs []*query.Query
	for i, src := range scratchQueries {
		if i != 1 {
			qs = append(qs, query.MustParse(src))
		}
	}
	opts := Options{Metrics: obs.NewRegistry()}
	counts := func() {
		for _, q := range qs {
			Count(sk, q, opts)
		}
	}
	counts() // fills the scratch pool and registers every metric
	if allocs := testing.AllocsPerRun(20, counts); allocs != 0 {
		t.Errorf("%.1f allocations per %d counted evaluations, want 0", allocs, len(qs))
	}
}

// TestTopKTraceCountersLand pins that the streaming path still reports its
// expansion after giving its scratch back: the approxer lives in the
// scratch, so the path must finish its counters before the release.
func TestTopKTraceCountersLand(t *testing.T) {
	sk := xmarkSketches(6000)[0]
	q := query.MustParse(scratchQueries[0])
	reg := obs.NewRegistry()
	tr := obs.NewTrace(q.String())
	res := ApproxContext(obs.ContextWithTrace(context.Background(), tr), sk, q, Options{Limit: 3, Metrics: reg})
	info := res.TopK
	if info == nil || info.Expanded == 0 || info.Discovered <= info.Expanded {
		t.Fatalf("top-k info %+v, want a partial expansion with a frontier", info)
	}
	c := tr.Snapshot().Counters
	if c["topk_expanded"] != int64(info.Expanded) || c["topk_frontier"] != int64(info.Discovered-info.Expanded) {
		t.Errorf("trace counters %v, want topk_expanded %d and topk_frontier %d", c, info.Expanded, info.Discovered-info.Expanded)
	}
	if c["approx_result_nodes"] != int64(len(res.Nodes)) {
		t.Errorf("trace approx_result_nodes = %d, want %d", c["approx_result_nodes"], len(res.Nodes))
	}
	if got := reg.Counter("eval.topk.expanded").Value(); got != int64(info.Expanded) {
		t.Errorf("eval.topk.expanded = %d, want %d", got, info.Expanded)
	}
}

// TestResultOutlivesItsScratch pins that an answer synopsis shares no
// memory with the scratch that built it: the next evaluation on the same
// goroutine takes that scratch back from the pool and rewrites it, plan
// included, and the earlier answer must not change.
func TestResultOutlivesItsScratch(t *testing.T) {
	sk := fuzzSketch()
	r := Approx(sk, query.MustParse("//a{//b?,//c?,/d?}"), Options{})
	want := r.Fingerprint()
	Approx(sk, query.MustParse("//a{//b,//c,/d{//e}}"), Options{})
	if got := r.Fingerprint(); got != want {
		t.Fatalf("the answer changed when the next evaluation reused its scratch: fingerprint %x, want %x", got, want)
	}
}
