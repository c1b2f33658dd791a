package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"treesketch/internal/datagen"
	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// builtName is the dataset under which the build workload serves the
// decoded output of its builds for the accuracy probe.
const builtName = "built"

// buildWorkload is the offline path: XML bytes to an encoded synopsis.
type buildWorkload struct {
	cfg     config
	data    []dataset
	probe   []probeItem
	classes int

	first *sketch.Sketch // output of the first timed build
	fp    uint64         // its fingerprint
	enc   []byte         // its encoding
}

func (w *buildWorkload) prepare(cfg config) error {
	w.cfg = cfg
	xml, t, err := doc(datagen.XMark, cfg.sizes.buildElems)
	if err != nil {
		return err
	}
	w.data = []dataset{{name: "XMark", xml: xml, budgetKB: cfg.sizes.buildKB}}
	qs, classes := pool(t, cfg.sizes.buildProbe)
	w.classes = classes
	w.probe, err = probe(builtName, t, qs, len(qs))
	return err
}

func (w *buildWorkload) datasets() ([]dataset, bool) { return w.data, false }
func (w *buildWorkload) workers() int                { return 1 }
func (w *buildWorkload) stream() int                 { return 0 }
func (w *buildWorkload) refOps() int                 { return refBuilds }
func (w *buildWorkload) probes() []probeItem         { return w.probe }

func (w *buildWorkload) start(e *env) error {
	e.classes, e.sketchBytes = w.classes, e.st.sketches[w.data[0].name].SizeBytes()
	return nil
}

// do runs one build: xmltree.Parse, stable.Build, tsbuild.Build and
// Sketch.Encode, each a span on tr.
func (w *buildWorkload) do(e *env, wk *worker, i int, tr *obs.Trace) float64 {
	d := w.data[0]
	t0 := time.Now()
	sp := tr.StartSpan("xmltree.parse")
	t, err := xmltree.Parse(bytes.NewReader(d.xml))
	sp.End()
	if err != nil {
		e.failures.add("build %d: %v", i, err)
		return math.Inf(1)
	}
	sp = tr.StartSpan("stable.build")
	syn := stable.Build(t)
	sp.End()
	sp = tr.StartSpan("tsbuild.build")
	sk, _ := tsbuild.Build(syn, tsbuild.Options{BudgetBytes: d.budgetKB << 10, Metrics: e.reg})
	sp.End()
	sp = tr.StartSpan("sketch.encode")
	wk.buf.Reset()
	err = sk.Encode(&wk.buf)
	sp.End()
	took := time.Since(t0)
	if err != nil {
		e.failures.add("build %d: encode: %v", i, err)
		return math.Inf(1)
	}
	w.check(e, i, sk, syn, wk.buf.Bytes())
	if tr != nil {
		tr.Finish()
		e.tracer.build(tr, took)
	}
	return ms(took)
}

// check holds every build to the first: the same fingerprint and the same
// encoded bytes. The first build must also pass tsbuild.VerifyAgainstStable.
func (w *buildWorkload) check(e *env, i int, sk *sketch.Sketch, syn *stable.Synopsis, enc []byte) {
	fp := sk.Fingerprint()
	if w.first == nil {
		if err := tsbuild.VerifyAgainstStable(sk, syn); err != nil {
			e.checks.add("build %d: %v", i, err)
		}
		w.first, w.fp, w.enc = sk, fp, append([]byte(nil), enc...)
		return
	}
	if fp != w.fp {
		e.checks.add("build %d: fingerprint %016x, first build %016x", i, fp, w.fp)
	}
	if !bytes.Equal(enc, w.enc) {
		e.checks.add("build %d: encoding differs from the first build's", i)
	}
}

// verify decodes the first build's encoding, requires the same
// fingerprint, publishes it on the running server, and sends the accuracy
// probe against it: each answer must equal in-process eval.Approx on the
// synopsis as built.
func (w *buildWorkload) verify(e *env) (float64, error) {
	if w.first == nil {
		return 0, fmt.Errorf("no build finished")
	}
	dec, err := sketch.Decode(bytes.NewReader(w.enc))
	if err != nil {
		e.checks.add("decode the encoded synopsis: %v", err)
		return 0, nil
	}
	if fp := dec.Fingerprint(); fp != w.fp {
		e.checks.add("decoded synopsis fingerprint %016x, built %016x", fp, w.fp)
	}
	e.st.srv.AddSketch(builtName, dec)
	e.st.sketches[builtName] = dec
	for i := range w.probe {
		p := &w.probe[i]
		p.url = estimateURL(e.st.base, builtName, p.text)
		p.want = eval.Approx(w.first, p.q, eval.Options{}).Selectivity()
	}
	return e.probePass(w.probe), nil
}
