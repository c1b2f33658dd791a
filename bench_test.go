package treesketch

import (
	"math"
	"testing"

	"treesketch/internal/datagen"
	"treesketch/internal/esd"
	"treesketch/internal/eval"
	"treesketch/internal/exp"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xsketch"
)

// Experiment benchmarks: one per table and figure of the paper's Section 6
// (see DESIGN.md §3 for the index). They run the exp harness at a reduced
// scale so `go test -bench=.` completes in minutes; use cmd/tsexp for
// larger runs. The stage benchmarks after them (BenchmarkBuildStable
// onward) time single stages in process; perfbench (BENCHMARK.json) times
// the served request path.
//
// Each benchmark reports a domain rate alongside ns/op: elems/s for
// construction, queries/s for evaluation, mre% / esd for accuracy. The
// ones that synthesize large documents skip themselves under -short.

// skipLarge skips document-heavy benchmarks under `go test -short -bench`.
func skipLarge(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping large-dataset benchmark in -short mode")
	}
}

func benchConfig() exp.Config {
	return exp.Config{
		TXScale:      5000,
		LargeScale:   10000,
		WorkloadSize: 15,
		BudgetsKB:    []int{3, 8},
		XSWorkload:   8,
		Seed:         1,
	}
}

func BenchmarkTable1DatasetCharacteristics(b *testing.B) {
	skipLarge(b)
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchConfig())
		rows := r.Table1()
		if len(rows) != 7 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkTable2WorkloadCharacteristics(b *testing.B) {
	skipLarge(b)
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchConfig())
		rows := r.Table2()
		if len(rows) != 7 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkTable3ConstructionTimes(b *testing.B) {
	skipLarge(b)
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchConfig())
		rows := r.Table3()
		if len(rows) != 3 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkFig11aApproxAnswersXMark(b *testing.B) {
	benchFig11(b, "XMark-TX")
}

func BenchmarkFig11bApproxAnswersIMDB(b *testing.B) {
	benchFig11(b, "IMDB-TX")
}

func BenchmarkFig11cApproxAnswersSProt(b *testing.B) {
	benchFig11(b, "SProt-TX")
}

func benchFig11(b *testing.B, name string) {
	skipLarge(b)
	var esdAvg float64
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchConfig())
		c := r.Figure11(name)
		if len(c.Points) == 0 {
			b.Fatal("no points")
		}
		esdAvg = curveMean(c)
	}
	b.ReportMetric(esdAvg, "esd")
}

func BenchmarkFig12aSelectivityXMark(b *testing.B) {
	benchFig12(b, "XMark-TX")
}

func BenchmarkFig12bSelectivitySProt(b *testing.B) {
	benchFig12(b, "SProt-TX")
}

func benchFig12(b *testing.B, name string) {
	skipLarge(b)
	var mre float64
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchConfig())
		c := r.Figure12(name)
		if len(c.Points) == 0 {
			b.Fatal("no points")
		}
		mre = curveMean(c)
	}
	b.ReportMetric(mre, "mre%")
}

func BenchmarkFig13LargeDatasets(b *testing.B) {
	skipLarge(b)
	var mre float64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.LargeScale = 8000
		r := exp.NewRunner(cfg)
		curves := r.Figure13()
		if len(curves) != 4 {
			b.Fatal("bad curve count")
		}
		var sum float64
		for _, c := range curves {
			sum += curveMean(c)
		}
		mre = sum / float64(len(curves))
	}
	b.ReportMetric(mre, "mre%")
}

// curveMean averages a curve's TreeSketch metric over its budget points,
// ignoring empty (NaN) cells.
func curveMean(c exp.Curve) float64 {
	var sum float64
	n := 0
	for _, p := range c.Points {
		if !math.IsNaN(p.TreeSketch) {
			sum += p.TreeSketch
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Micro-benchmarks of the pipeline stages.

func benchDoc(b *testing.B, n int) (*Document, *StableSummary) {
	b.Helper()
	doc := datagen.Generate(datagen.XMark, n, 1)
	return doc, stable.Build(doc)
}

func BenchmarkBuildStable(b *testing.B) {
	skipLarge(b)
	doc := datagen.Generate(datagen.XMark, 50000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := stable.Build(doc)
		if st.NumNodes() == 0 {
			b.Fatal("empty")
		}
	}
	b.ReportMetric(float64(b.N)*float64(doc.Size())/b.Elapsed().Seconds(), "elems/s")
}

func BenchmarkTSBuildCompression(b *testing.B) {
	skipLarge(b)
	doc, st := benchDoc(b, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 10 << 10})
		if sk.NumNodes() == 0 {
			b.Fatal("empty")
		}
	}
	b.ReportMetric(float64(b.N)*float64(doc.Size())/b.Elapsed().Seconds(), "elems/s")
}

func BenchmarkXSketchBuild(b *testing.B) {
	skipLarge(b)
	doc, st := benchDoc(b, 20000)
	ix := eval.NewIndex(doc)
	qs := query.Generate(st, 10, query.GenOptions{Seed: 3})
	sample := make([]xsketch.SampleQuery, 0, len(qs))
	for _, q := range qs {
		sample = append(sample, xsketch.SampleQuery{Q: q, Truth: eval.Exact(ix, q).Tuples})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xs, _ := xsketch.Build(st, xsketch.BuildOptions{BudgetBytes: 10 << 10, Workload: sample})
		if xs.NumNodes() == 0 {
			b.Fatal("empty")
		}
	}
	b.ReportMetric(float64(b.N)*float64(doc.Size())/b.Elapsed().Seconds(), "elems/s")
}

func BenchmarkApproxEval(b *testing.B) {
	skipLarge(b)
	_, st := benchDoc(b, 50000)
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 20 << 10})
	q := query.MustParse("//person[//address]{//watches{//watch?},//phone?}")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eval.Approx(sk, q, eval.Options{})
		if r == nil {
			b.Fatal("nil result")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkApproxTopK is BenchmarkApproxEval through the streaming
// best-first emitter under a 16-node budget (eval.Options.Limit).
func BenchmarkApproxTopK(b *testing.B) {
	skipLarge(b)
	_, st := benchDoc(b, 50000)
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 20 << 10})
	q := query.MustParse("//person[//address]{//watches{//watch?},//phone?}")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eval.Approx(sk, q, eval.Options{Limit: 16})
		if r.TopK == nil {
			b.Fatal("no top-k report")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkExactEval(b *testing.B) {
	skipLarge(b)
	doc, _ := benchDoc(b, 50000)
	ix := eval.NewIndex(doc)
	q := query.MustParse("//person[//address]{//watches{//watch?},//phone?}")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eval.Exact(ix, q)
		if r == nil {
			b.Fatal("nil result")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkSelectivityEstimate(b *testing.B) {
	skipLarge(b)
	doc, st := benchDoc(b, 50000)
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 20 << 10})
	q := query.MustParse("//open_auction{//bidder}")
	truth := eval.Exact(eval.NewIndex(doc), q).Tuples
	var est float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est = eval.Approx(sk, q, eval.Options{}).Selectivity()
		if est < 0 {
			b.Fatal("negative")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(100*eval.RelativeError(truth, est, 1), "mre%")
}

func BenchmarkESDDistance(b *testing.B) {
	skipLarge(b)
	doc, st := benchDoc(b, 20000)
	ix := eval.NewIndex(doc)
	sk, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: 10 << 10})
	q := query.MustParse("//item{//mail?,//payment?}")
	truth := eval.Exact(ix, q).ESDGraph()
	approx := eval.Approx(sk, q, eval.Options{}).ESDGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := esd.Distance(truth, approx); d < 0 {
			b.Fatal("negative distance")
		}
	}
}

func BenchmarkSketchExpand(b *testing.B) {
	_, st := benchDoc(b, 10000)
	sk := sketch.FromStable(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Expand(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseXML(b *testing.B) {
	skipLarge(b)
	doc := datagen.Generate(datagen.DBLP, 20000, 1)
	var sb []byte
	{
		var buf = &writerBuf{}
		doc.Write(buf)
		sb = buf.b
	}
	b.SetBytes(int64(len(sb)))
	b.ReportAllocs()
	b.ResetTimer()
	var elems float64
	for i := 0; i < b.N; i++ {
		t, err := ParseXMLString(string(sb))
		if err != nil || t.Size() == 0 {
			b.Fatal(err)
		}
		elems = float64(t.Size())
	}
	b.ReportMetric(float64(b.N)*elems/b.Elapsed().Seconds(), "elems/s")
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
