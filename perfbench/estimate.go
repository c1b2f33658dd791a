package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"treesketch/internal/datagen"
	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/serve"
	"treesketch/internal/stable"
)

// estimateWorkload is estimate-hot or estimate-cold: closed-loop GET
// /estimate traffic against static synopses.
type estimateWorkload struct {
	cold    bool
	cfg     config
	data    []dataset
	items   []item // the distinct queries of the stream
	order   []int  // cold: seeded order of items
	zipf    zipf   // hot: rank distribution over items
	probe   []probeItem
	classes int
}

// item is one distinct query of a request stream. Its URL is built when it
// is sent, so a large stream holds only the query texts.
type item struct {
	ds, text string
	check    bool    // the answer is checked against want
	want     float64 // in-process eval.Approx on the served synopsis
}

// heavyTwigs is estimate-cold's generator setting: wider, deeper twigs
// with more predicates than the default, so evaluation dominates.
var heavyTwigs = query.GenOptions{Seed: poolSeed, MaxFanout: 3, MaxQueryDepth: 3, MaxSteps: 3, PredProb: 0.5}

func (w *estimateWorkload) prepare(cfg config) error {
	w.cfg = cfg
	s := cfg.sizes
	if !w.cold {
		xml, t, err := doc(datagen.XMark, s.hotElems)
		if err != nil {
			return err
		}
		w.data = []dataset{{name: "XMark-TX", xml: xml, budgetKB: s.hotKB}}
		qs, classes := pool(t, s.hotPool)
		if w.probe, err = probe("XMark-TX", t, qs, len(qs)); err != nil {
			return err
		}
		w.classes = classes
		for _, p := range w.probe {
			w.items = append(w.items, item{ds: p.ds, text: p.text, check: true})
		}
		w.zipf = newZipf(len(w.items), 1.1)
		return nil
	}
	for _, d := range []struct {
		name string
		gen  datagen.Dataset
	}{{"IMDB-TX", datagen.IMDB}, {"XMark-TX", datagen.XMark}, {"SProt-TX", datagen.SwissProt}} {
		xml, t, err := doc(d.gen, s.coldElems)
		if err != nil {
			return err
		}
		w.data = append(w.data, dataset{name: d.name, xml: xml, budgetKB: s.coldKB})
		st := stable.Build(t)
		if w.classes == 0 {
			w.classes = len(st.Nodes)
		}
		seen := make(map[string]bool)
		var distinct []*query.Query
		for _, q := range query.Generate(st, s.coldDraws, heavyTwigs) {
			if text := q.String(); !seen[text] {
				seen[text] = true
				distinct = append(distinct, q)
			}
		}
		pr, err := probe(d.name, t, distinct, s.coldProbe)
		if err != nil {
			return err
		}
		checked := make(map[string]bool, len(pr))
		for _, p := range pr {
			checked[p.text] = true
		}
		for _, q := range distinct {
			text := q.String()
			w.items = append(w.items, item{ds: d.name, text: text, check: checked[text]})
		}
		w.probe = append(w.probe, pr...)
	}
	w.order = shuffled(cfg.seed, len(w.items))
	return nil
}

func (w *estimateWorkload) datasets() ([]dataset, bool) { return w.data, false }
func (w *estimateWorkload) workers() int                { return w.cfg.clients }
func (w *estimateWorkload) stream() int                 { return len(w.order) }
func (w *estimateWorkload) refOps() int                 { return refRequests }
func (w *estimateWorkload) probes() []probeItem         { return w.probe }

// start computes every checked answer in-process on the served synopses,
// then warms up with one untimed pass over the probe.
func (w *estimateWorkload) start(e *env) error {
	want := make(map[string]float64, len(w.probe))
	for i := range w.probe {
		p := &w.probe[i]
		sk := e.st.sketches[p.ds]
		p.url = estimateURL(e.st.base, p.ds, p.text)
		p.want = eval.Approx(sk, p.q, eval.Options{}).Selectivity()
		want[p.ds+"\x00"+p.text] = p.want
	}
	for i := range w.items {
		if it := &w.items[i]; it.check {
			it.want = want[it.ds+"\x00"+it.text]
		}
	}
	e.classes, e.sketchBytes = w.classes, e.st.sketches[w.data[0].name].SizeBytes()
	e.probePass(w.probe)
	return nil
}

// do sends operation i: query i of the seeded shuffle (cold; the phase
// never runs past its end) or a Zipf draw from the pool (hot).
func (w *estimateWorkload) do(e *env, wk *worker, i int, tr *obs.Trace) float64 {
	var it *item
	if w.cold {
		it = &w.items[w.order[i]]
	} else {
		it = &w.items[w.zipf.rank(unit(mix(w.cfg.seed, i)))]
	}
	rt, sel, err := e.estimate(wk, it.ds, it.text, estimateURL(e.st.base, it.ds, it.text), tr, true)
	if err != nil {
		e.failures.add("%v", err)
		return math.Inf(1)
	}
	if it.check && math.Float64bits(sel) != math.Float64bits(it.want) {
		e.checks.add("%s %s: answered %v, in-process eval %v", it.ds, it.text, sel, it.want)
	}
	return ms(rt)
}

func (w *estimateWorkload) verify(e *env) (float64, error) { return e.probePass(w.probe), nil }

// estimate sends GET u (query src on dataset ds) and returns the round-trip
// time and the answered selectivity. With a non-nil tr the round trip is a
// span and the request is then replayed layer by layer (see replay); op
// marks an operation of the timed phase, whose layer times make up the
// per-layer shares.
func (e *env) estimate(wk *worker, ds, src, u string, tr *obs.Trace, op bool) (time.Duration, float64, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return 0, 0, err
	}
	sp := tr.StartSpan("http.roundtrip")
	t0 := time.Now()
	status, err := e.client.do(req, &wk.buf)
	rt := time.Since(t0)
	sp.End()
	if err != nil {
		return rt, 0, fmt.Errorf("%s %s: %w", ds, src, err)
	}
	body := wk.buf.Bytes()
	if status != http.StatusOK {
		return rt, 0, fmt.Errorf("%s %s: status %d: %s", ds, src, status, bytes.TrimSpace(body))
	}
	var resp serve.EstimateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return rt, 0, fmt.Errorf("%s %s: response %s: %w", ds, src, body, err)
	}
	_, live := e.st.stacks[ds]
	if live && resp.Tier == nil {
		return rt, 0, fmt.Errorf("%s %s: live answer without a tier block: %s", ds, src, body)
	}
	if tr != nil {
		if live && op {
			e.tracer.tierView(resp.Tier)
		}
		e.replay(tr, ds, src, u)
		tr.Finish()
		e.tracer.estimate(tr, op)
	}
	return rt, resp.Selectivity, nil
}

// replay re-runs an answered estimate from benchmark code, one span per
// layer: the server's handler through httptest, query.Parse, the estimate
// itself with tr in the context so eval's plan/memo/emit spans land on the
// trace (eval.ApproxContext; for a live dataset the view's EstimateContext,
// then eval.Approx on the view's base alone, which splits off the delta
// tiers' cost), and the JSON encoding of the response.
func (e *env) replay(tr *obs.Trace, ds, src, u string) {
	sp := tr.StartSpan("serve.handler")
	e.st.handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, u, nil))
	sp.End()

	sp = tr.StartSpan("query.parse")
	q, err := query.Parse(src)
	sp.End()
	if err != nil {
		e.checks.add("replay: %q does not parse: %v", src, err)
		return
	}

	ctx := obs.ContextWithTrace(context.Background(), tr)
	opts := eval.Options{Metrics: e.reg}
	resp := serve.EstimateResponse{TraceID: tr.IDString(), Dataset: ds, Mode: "approx"}
	var res *eval.Result
	if stk, live := e.st.stacks[ds]; live {
		v := stk.View()
		sp = tr.StartSpan("tier.estimate")
		r, sel, info := v.EstimateContext(ctx, q, opts)
		sp.End()
		sp = tr.StartSpan("eval.base")
		eval.Approx(v.Base, q, opts)
		sp.End()
		res, resp.Selectivity = r, sel
		resp.Tier = &serve.TierResponse{
			Epoch:           info.Epoch,
			Tiers:           info.Tiers,
			DeltaElems:      info.DeltaElems,
			BaseSelectivity: info.BaseSelectivity,
			Delta:           info.Delta,
			Compacting:      stk.Compacting(),
		}
	} else {
		sp = tr.StartSpan("eval.approx")
		res = eval.ApproxContext(ctx, e.st.sketches[ds], q, opts)
		sp.End()
		resp.Selectivity = res.Selectivity()
	}

	sp = tr.StartSpan("serve.encode")
	resp.Query = q.String()
	resp.ResultNodes = len(res.Nodes)
	resp.Empty = res.Empty && resp.Selectivity == 0
	resp.Truncated = res.Truncated
	// Only the encoding's cost is wanted; the served body was checked.
	_ = json.NewEncoder(io.Discard).Encode(resp)
	sp.End()
}

// probePass sends every probe query once over HTTP, untimed, checks each
// answer bit-equal to the expected one, and returns the paper's mean
// relative error (Section 6.1, with the sanity bound) of the answers, in
// percent.
func (e *env) probePass(items []probeItem) float64 {
	wk := &worker{}
	var sum float64
	for _, p := range items {
		var tr *obs.Trace
		if e.tracer != nil {
			tr = obs.NewTrace("probe")
		}
		_, sel, err := e.estimate(wk, p.ds, p.text, p.url, tr, false)
		if err != nil {
			e.checks.add("probe: %v", err)
			continue
		}
		if math.Float64bits(sel) != math.Float64bits(p.want) {
			e.checks.add("probe %s %s: answered %v, in-process eval %v", p.ds, p.text, sel, p.want)
		}
		sum += eval.RelativeError(p.truth, sel, p.sanity)
	}
	return 100 * sum / float64(len(items))
}
