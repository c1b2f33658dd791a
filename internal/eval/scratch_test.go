package eval

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"treesketch/internal/datagen"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
)

// xmarkSketches returns two synopses of a small XMark document of the
// given size, whose recursive parlist/listitem chains give
// //parlist//listitem several step assignments per node path: one merged
// to 3 KB and the count-stable one.
func xmarkSketches(elements int) []*sketch.Sketch {
	st := stable.Build(datagen.Generate(datagen.XMark, elements, 1))
	merged, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 3 << 10})
	return []*sketch.Sketch{merged, sketch.FromStable(st)}
}

// scratchQueries mixes predicate paths with several step assignments,
// nested predicates and predicate-free paths.
var scratchQueries = []string{
	"//item{//parlist//listitem[//text]{//parlist//listitem?},//description//text?}",
	"//parlist//listitem[//parlist//listitem[/text]]",
	"//item[//parlist[//listitem[//text]]]{//name?}",
	"//description[//parlist//listitem]{//parlist//listitem[//text]{//text?}}",
	"//open_auction[//bidder]{//annotation//parlist//listitem?}",
	"//regions//item[//incategory]{//description//listitem?,//mailbox//mail?}",
}

// TestApproxConcurrentEvaluationsMatchSerial runs a mixed query set from
// several goroutines over two shared synopses. Every evaluation takes its
// own pooled scratch, so each must fingerprint exactly like the serial run
// however the evaluations interleave; run it under -race.
func TestApproxConcurrentEvaluationsMatchSerial(t *testing.T) {
	sks := xmarkSketches(6000)
	// The fixture must exercise duplicate step assignments.
	a := &approxer{sk: sks[0], opts: Options{}.withDefaults(), mEmbeddings: &obs.Counter{}, mEmbedWork: &obs.Counter{}}
	multi := false
	for _, e := range (&refEnum{a: a}).enumerate(sks[0].Root, query.MustParse("//parlist//listitem").Root.Edges[0].Path.Steps) {
		multi = multi || len(e.stepAts) > 1
	}
	if !multi {
		t.Fatal("no node path of //parlist//listitem has several step assignments; the fixture no longer covers them")
	}

	reg := obs.NewRegistry()
	opts := []Options{{}, {PaperMode: true}, {Limit: 8}, {Limit: -1}, {Limit: 3, PaperMode: true}}
	type job struct {
		sk   *sketch.Sketch
		q    *query.Query
		opts Options
		want uint64
	}
	var jobs []job
	for _, sk := range sks {
		for _, src := range scratchQueries {
			q := query.MustParse(src)
			for _, o := range opts {
				o.Metrics = reg
				jobs = append(jobs, job{sk, q, o, Approx(sk, q, o).Fingerprint()})
			}
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range 2 * len(jobs) {
				j := jobs[(i*7+w*5)%len(jobs)]
				if got := Approx(j.sk, j.q, j.opts).Fingerprint(); got != j.want {
					errs <- j.q.String()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for q := range errs {
		t.Errorf("query %s: concurrent fingerprint differs from the serial one", q)
	}
}

// TestApproxHugeMaxEmbeddings pins that a MaxEmbeddings meaning "no cap"
// (tsserve -max-embeddings with math.MaxInt) behaves like a large cap, on
// the batch and the top-k path: the work allowance derived from it must
// not overflow into one that truncates every enumeration at once.
func TestApproxHugeMaxEmbeddings(t *testing.T) {
	sk := fuzzSketch()
	q := query.MustParse("//a//b")
	want := Approx(sk, q, Options{}).Selectivity()
	if want != 4 {
		t.Fatalf("default cap: selectivity %v, want 4", want)
	}
	for _, m := range []int{1 << 40, 1 << 57, 1 << 58, math.MaxInt} {
		for _, limit := range []int{0, 4, -1} {
			r := Approx(sk, q, Options{MaxEmbeddings: m, Limit: limit})
			if r.Truncated || r.Empty || r.Selectivity() != want {
				t.Errorf("MaxEmbeddings %d, Limit %d: selectivity %v truncated %v empty %v, want %v",
					m, limit, r.Selectivity(), r.Truncated, r.Empty, want)
			}
		}
	}
}

// TestApproxAllocationGuard pins that evaluation allocates per answer, not
// per embedding: the heavy predicate twig enumerates thousands of
// embeddings, and its allocation count stays near the handful the answer
// synopsis and the per-query bookkeeping need. The ceiling is about 1.5
// times the count measured when it was set; bringing back per-embedding
// allocation multiplies it.
func TestApproxAllocationGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const ceiling = 9
	sk := xmarkSketches(10000)[0]
	q := query.MustParse(scratchQueries[0])
	reg := obs.NewRegistry()
	opts := Options{Metrics: reg}
	Approx(sk, q, opts) // fills the scratch pool and registers every metric
	allocs := testing.AllocsPerRun(50, func() { Approx(sk, q, opts) })
	if emb := reg.Counter("eval.approx.embeddings").Value() / 51; emb < 1000 {
		t.Fatalf("%d embeddings per evaluation; the twig is no longer heavy", emb)
	}
	if allocs > ceiling {
		t.Errorf("%.0f allocations per evaluation, want <= %d", allocs, ceiling)
	}
	t.Logf("%.0f allocations per evaluation", allocs)
}

// scratchField is one field of an approxScratch, settable through
// reflection.
type scratchField struct {
	name string
	v    reflect.Value
}

// scratchFields returns every field of sc, in declaration order.
func scratchFields(sc *approxScratch) []scratchField {
	v := reflect.ValueOf(sc).Elem()
	var out []scratchField
	for i := range v.NumField() {
		out = append(out, scratchField{v.Type().Field(i).Name, settable(v.Field(i))})
	}
	return out
}

// settable returns f, unexported or not, as a settable value.
func settable(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// fillField makes f non-empty: a slice gets four elements (pointers point
// somewhere, inner slices get four elements too), a map one entry, a
// pointer a fresh target, a bool or number a non-zero value, and a struct
// has each of its fields filled so.
func fillField(f reflect.Value) {
	switch f.Kind() {
	case reflect.Slice:
		s := reflect.MakeSlice(f.Type(), 4, 64)
		for i := range s.Len() {
			switch el := s.Index(i); el.Kind() {
			case reflect.Pointer:
				el.Set(reflect.New(el.Type().Elem()))
			case reflect.Slice:
				el.Set(reflect.MakeSlice(el.Type(), 4, 4))
			}
		}
		f.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(f.Type())
		m.SetMapIndex(reflect.Zero(f.Type().Key()), reflect.Zero(f.Type().Elem()))
		f.Set(m)
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	case reflect.Struct:
		for i := range f.NumField() {
			fillField(settable(f.Field(i)))
		}
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int64:
		f.SetInt(7)
	case reflect.Float64:
		f.SetFloat(0.5)
	}
}

// TestScratchResetLeavesNothingBehind pins that a scratch goes back to the
// pool empty, whatever state its evaluation stopped in: with every field
// filled and an accumulation open, as a canceled walk can leave them,
// reset must leave every buffer empty with no pointer in its backing
// array, the dense per-terminal sums all zero, every map empty, every
// number zero, and the approxer it holds zero, so a pooled scratch pins no
// context, sketch or registry. A field added to the scratch but not to
// reset fails here.
func TestScratchResetLeavesNothingBehind(t *testing.T) {
	sc := new(approxScratch)
	fields := scratchFields(sc)
	for _, f := range fields {
		fillField(f.v)
	}
	if reflect.ValueOf(sc.a).IsZero() {
		t.Fatal("fillField left the approxer zero; the check below would pass vacuously")
	}
	sc.termSum, sc.termSeen, sc.touched = make([]float64, 8), make([]bool, 8), nil
	sc.addTerm(5, 1.5)
	sc.addTerm(2, 0.25)
	sc.addExistence(5, 0.75)
	sc.reset()
	for _, f := range fields {
		v := f.v
		switch {
		case f.name == "trie":
			// Epoch-stamped: every enumeration starts it afresh.
		case f.name == "canArena":
			// An arena: canUsed, checked as a number, marks it all free.
		case f.name == "termSum" || f.name == "termSeen":
			for i := range v.Len() {
				if !v.Index(i).IsZero() {
					t.Errorf("%s[%d] = %v after reset, want zero", f.name, i, v.Index(i))
				}
			}
		case f.name == "a":
			if !v.IsZero() {
				t.Errorf("the approxer holds state after reset: %+v", sc.a)
			}
		case f.name == "bind":
			for i := range v.Len() {
				if v.Index(i).Len() != 0 {
					t.Errorf("bind[%d] holds %d IDs after reset", i, v.Index(i).Len())
				}
			}
		case v.Kind() == reflect.Slice:
			if v.Len() != 0 {
				t.Errorf("%s holds %d elements after reset", f.name, v.Len())
			}
			all := v.Slice(0, v.Cap())
			for i := range all.Len() {
				if all.Index(i).Kind() == reflect.Pointer && !all.Index(i).IsNil() {
					t.Errorf("%s's backing array still points at something in slot %d", f.name, i)
				}
			}
		case v.Kind() == reflect.Map:
			if v.Len() != 0 {
				t.Errorf("%s holds %d entries after reset", f.name, v.Len())
			}
		case v.Kind() == reflect.Int || v.Kind() == reflect.Float64:
			if !v.IsZero() {
				t.Errorf("%s = %v after reset, want zero", f.name, v)
			}
		default:
			t.Errorf("field %s of kind %s: teach reset and this test about it", f.name, v.Kind())
		}
	}
}

// TestScratchBytesCountsEveryBuffer pins that the byte cap sees all of a
// scratch: every buffer and map, filled alone, must show in bytes().
func TestScratchBytesCountsEveryBuffer(t *testing.T) {
	for i, f := range scratchFields(new(approxScratch)) {
		if k := f.v.Kind(); k != reflect.Slice && k != reflect.Map {
			continue
		}
		sc := new(approxScratch)
		fillField(scratchFields(sc)[i].v)
		if sc.bytes() == 0 {
			t.Errorf("bytes() does not count %s", f.name)
		}
	}
	sc := new(approxScratch)
	sc.trie.reset()
	if sc.bytes() == 0 {
		t.Error("bytes() does not count the path trie")
	}
}
