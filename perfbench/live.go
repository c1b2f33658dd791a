package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"treesketch/internal/datagen"
	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/serve"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
	"treesketch/internal/xmltree"
)

// liveName is live-mixed's dataset.
const liveName = "XMark-TX"

// liveWorkload is live-mixed: estimates and updates against a tier stack.
type liveWorkload struct {
	cfg     config
	data    []dataset
	elems   int
	probe   []probeItem // the estimate queries, drawn uniformly, and the accuracy probe
	classes int
	s       *script
	shadow  *shadow // traced run only
}

func (w *liveWorkload) prepare(cfg config) error {
	w.cfg = cfg
	xml, t, err := doc(datagen.XMark, cfg.sizes.liveElems)
	if err != nil {
		return err
	}
	w.data = []dataset{{name: liveName, xml: xml, budgetKB: cfg.sizes.liveKB}}
	w.elems = t.Size()
	qs, classes := pool(t, cfg.sizes.livePool)
	w.classes = classes
	if w.probe, err = probe(liveName, t, qs, len(qs)); err != nil {
		return err
	}
	w.s, err = newScript(t, cfg.seed, cfg.sizes.maxProto)
	return err
}

func (w *liveWorkload) datasets() ([]dataset, bool) { return w.data, true }
func (w *liveWorkload) workers() int                { return w.cfg.clients }
func (w *liveWorkload) stream() int                 { return 0 }
func (w *liveWorkload) refOps() int                 { return refRequests }
func (w *liveWorkload) probes() []probeItem         { return w.probe }

// isUpdate reports whether operation i of the shared sequence is an update.
func (w *liveWorkload) isUpdate(i int) bool { return i%w.cfg.sizes.updateEvery == 0 }

// start warms up with one untimed pass over the estimate queries. A
// traced run also builds the shadow stack the updates are replayed on.
func (w *liveWorkload) start(e *env) error {
	for i := range w.probe {
		w.probe[i].url = estimateURL(e.st.base, liveName, w.probe[i].text)
	}
	e.classes, e.sketchBytes = w.classes, e.st.stacks[liveName].View().Base.SizeBytes()
	if e.tracer != nil {
		sh, err := newShadow(w.data[0])
		if err != nil {
			return err
		}
		w.shadow = sh
	}
	wk := &worker{}
	for _, p := range w.probe {
		if _, _, err := e.estimate(wk, p.ds, p.text, p.url, nil, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// do runs operation i of the shared sequence: an update when
// i%updateEvery == 0, otherwise an estimate. Update k waits until update
// k-1 has been answered; an estimate waits for every update before it.
func (w *liveWorkload) do(e *env, wk *worker, i int, tr *obs.Trace) float64 {
	k := i / w.cfg.sizes.updateEvery
	if w.isUpdate(i) {
		w.s.wait(k)
		defer w.s.complete()
		return w.update(e, wk, tr)
	}
	w.s.wait(k + 1)
	p := &w.probe[mix(w.cfg.seed, i)%uint64(len(w.probe))]
	rt, sel, err := e.estimate(wk, p.ds, p.text, p.url, tr, true)
	if err != nil {
		e.failures.add("%v", err)
		return math.Inf(1)
	}
	if sel < 0 || math.IsNaN(sel) {
		e.checks.add("%s: selectivity %v", p.text, sel)
	}
	return ms(rt)
}

// update sends the script's next update. In a traced run the same update
// is then absorbed by the shadow stack, timed as the tier layer.
func (w *liveWorkload) update(e *env, wk *worker, tr *obs.Trace) float64 {
	u := w.s.next()
	oid, rt, err := e.update(wk, u.request(), tr)
	w.s.answered(u, oid, err == nil)
	if err != nil {
		e.failures.add("%v", err)
		return math.Inf(1)
	}
	if tr != nil {
		w.shadow.absorb(e, tr, w.s.applied)
		tr.Finish()
		e.tracer.update(tr)
	}
	return ms(rt)
}

// verify deletes every subtree the script still holds, drains the stack,
// and checks the compacted base against a rebuild of the final document
// (which, with every insert deleted, is the original document again). The
// accuracy probe then runs against the drained stack.
func (w *liveWorkload) verify(e *env) (float64, error) {
	wk := &worker{}
	for len(w.s.held) > 0 {
		oid := w.s.held[len(w.s.held)-1]
		w.s.held = w.s.held[:len(w.s.held)-1]
		if _, _, err := e.update(wk, scriptUpdate{oid: oid}.request(), nil); err != nil {
			return 0, fmt.Errorf("delete inserted subtree %d: %w", oid, err)
		}
	}
	if w.shadow != nil {
		w.shadow.stk.Compact()
	}
	stk := e.st.stacks[liveName]
	stk.Compact()
	v := stk.View()
	if n := v.Tiers(); n != 0 {
		e.checks.add("%d delta tiers left after the drain", n)
	}
	final := stk.Doc()
	if final.Size() != w.elems {
		e.checks.add("final document has %d elements, the original %d", final.Size(), w.elems)
	}
	var tr *obs.Trace
	if e.tracer != nil {
		tr = obs.NewTrace("check")
	}
	sp := tr.StartSpan("stable.build")
	syn := stable.Build(final)
	sp.End()
	e.tracer.aux(tr)
	oracle := tier.CompactSketch(syn, w.data[0].budgetKB<<10, 0, obs.NewRegistry())
	if got, want := v.Base.Fingerprint(), oracle.Fingerprint(); got != want {
		e.checks.add("compacted base fingerprint %016x, rebuild of the final document %016x", got, want)
	}
	for i := range w.probe {
		p := &w.probe[i]
		_, p.want, _ = v.Estimate(p.q, eval.Options{})
	}
	return e.probePass(w.probe), nil
}

// update sends POST /update and returns the OID the response reports.
func (e *env) update(wk *worker, req serve.UpdateRequest, tr *obs.Trace) (int, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	hreq, err := http.NewRequest(http.MethodPost, e.st.base+"/update", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	sp := tr.StartSpan("http.roundtrip")
	t0 := time.Now()
	status, err := e.client.do(hreq, &wk.buf)
	rt := time.Since(t0)
	sp.End()
	if err != nil {
		return 0, rt, fmt.Errorf("%s: %w", body, err)
	}
	if status != http.StatusOK {
		return 0, rt, fmt.Errorf("%s: status %d: %s", body, status, bytes.TrimSpace(wk.buf.Bytes()))
	}
	var resp serve.UpdateResponse
	if err := json.Unmarshal(wk.buf.Bytes(), &resp); err != nil {
		return 0, rt, fmt.Errorf("%s: response %s: %w", body, wk.buf.Bytes(), err)
	}
	return resp.OID, rt, nil
}

// script is live-mixed's update sequence. Update k starts only after
// update k-1 has been answered, so the script's random draws and the OIDs
// it learns from insert responses are consumed in one order however the
// workers interleave: a seed always yields the same updates. Inserts go
// under original elements only, so inserted subtrees never nest and a
// delete never removes another held subtree.
type script struct {
	mu   sync.Mutex
	cond *sync.Cond
	done int // updates answered

	// The fields below are touched only by the one update in flight.
	rng      *rand.Rand
	maxProto int
	nodes    []*xmltree.Node  // original elements in document order
	parent   []int            // index of each element's parent, -1 for the root
	kids     [][]int          // indexes of each element's children
	size     []int            // subtree size of each element
	byLabel  map[string][]int // element indexes by label
	held     []int            // OIDs of inserted subtrees still in the document
	applied  []scriptUpdate   // answered updates, in order
}

// scriptUpdate is one update of the script.
type scriptUpdate struct {
	insert  bool
	parent  int    // insert: OID of the adopting element
	subtree string // insert: compact syntax
	oid     int    // delete: the removed subtree; insert: the adopted root once answered
}

func (u scriptUpdate) request() serve.UpdateRequest {
	if u.insert {
		return serve.UpdateRequest{Dataset: liveName, Op: "insert", ParentOID: u.parent, Subtree: u.subtree}
	}
	return serve.UpdateRequest{Dataset: liveName, Op: "delete", OID: u.oid}
}

// newScript indexes the original document t (as the server parsed it).
func newScript(t *xmltree.Tree, seed int64, maxProto int) (*script, error) {
	s := &script{rng: rand.New(rand.NewSource(seed)), maxProto: maxProto, byLabel: make(map[string][]int)}
	s.cond = sync.NewCond(&s.mu)
	var walk func(n *xmltree.Node, parent int) int
	walk = func(n *xmltree.Node, parent int) int {
		id := len(s.nodes)
		s.nodes = append(s.nodes, n)
		s.parent = append(s.parent, parent)
		s.kids = append(s.kids, nil)
		s.size = append(s.size, 0)
		s.byLabel[n.Label] = append(s.byLabel[n.Label], id)
		if parent >= 0 {
			s.kids[parent] = append(s.kids[parent], id)
		}
		size := 1
		for _, c := range n.Children {
			size += walk(c, id)
		}
		s.size[id] = size
		return size
	}
	if walk(t.Root, -1) <= maxProto {
		return nil, fmt.Errorf("document of %d elements is too small for %d-element inserts", len(s.nodes), maxProto)
	}
	return s, nil
}

// wait blocks until n updates have been answered.
func (s *script) wait(n int) {
	s.mu.Lock()
	for s.done < n {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// complete marks the update in flight answered.
func (s *script) complete() {
	s.mu.Lock()
	s.done++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// next draws the next update: while the script holds inserted subtrees,
// half the updates delete one of them; otherwise it inserts a copy of the
// subtree of a random original element (descending to a random child until
// it has at most maxProto elements), written in compact syntax, under a
// random original element that carries the label of the copied subtree's
// parent.
func (s *script) next() scriptUpdate {
	if len(s.held) > 0 && s.rng.Intn(2) == 0 {
		j := s.rng.Intn(len(s.held))
		oid := s.held[j]
		s.held[j] = s.held[len(s.held)-1]
		s.held = s.held[:len(s.held)-1]
		return scriptUpdate{oid: oid}
	}
	src := s.rng.Intn(len(s.nodes))
	for s.size[src] > s.maxProto || s.parent[src] < 0 {
		src = s.kids[src][s.rng.Intn(len(s.kids[src]))]
	}
	peers := s.byLabel[s.nodes[s.parent[src]].Label]
	parent := s.nodes[peers[s.rng.Intn(len(peers))]]
	subtree := (&xmltree.Tree{Root: s.nodes[src]}).Compact()
	return scriptUpdate{insert: true, parent: parent.OID, subtree: subtree}
}

// answered records the outcome of u: an inserted subtree is held for a
// later delete, and a refused delete leaves its subtree held.
func (s *script) answered(u scriptUpdate, oid int, ok bool) {
	switch {
	case ok && u.insert:
		u.oid = oid
		s.held = append(s.held, oid)
	case !ok && !u.insert:
		s.held = append(s.held, u.oid)
	}
	if ok {
		s.applied = append(s.applied, u)
	}
}

// shadow is a second tier stack over the same document that replays the
// script's updates in-process, so a traced run can time the absorb alone.
type shadow struct {
	stk *tier.Stack
	at  int // script updates applied
}

func newShadow(d dataset) (*shadow, error) {
	t, err := xmltree.Parse(bytes.NewReader(d.xml))
	if err != nil {
		return nil, err
	}
	stk, err := tier.New(t, tier.Options{BudgetBytes: d.budgetKB << 10, Metrics: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	return &shadow{stk: stk}, nil
}

// absorb brings the shadow up to the script's answered updates: the ones
// before the last untimed (the first traced update catches up with the
// untraced phase), the last as a "tier.absorb" span on tr. It must assign
// the OIDs the server did.
func (sh *shadow) absorb(e *env, tr *obs.Trace, applied []scriptUpdate) {
	for sh.at < len(applied) {
		u := applied[sh.at]
		sh.at++
		var (
			oid int
			err error
		)
		if sh.at == len(applied) {
			sp := tr.StartSpan("tier.absorb")
			oid, err = sh.apply(u)
			sp.End()
		} else {
			oid, err = sh.apply(u)
		}
		if err != nil || oid != u.oid {
			e.checks.add("shadow stack: update %+v gave OID %d, %v", u, oid, err)
		}
	}
}

func (sh *shadow) apply(u scriptUpdate) (int, error) {
	if !u.insert {
		return u.oid, sh.stk.Delete(u.oid)
	}
	proto, err := xmltree.BuildCompact(u.subtree)
	if err != nil {
		return 0, err
	}
	return sh.stk.Insert(u.parent, proto)
}
