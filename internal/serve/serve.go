// Package serve is the query-serving layer of the TreeSketch system: a
// long-running HTTP server that loads one or more synopses and answers
// selectivity-estimate requests from many concurrent clients, with the
// serving-grade telemetry the batch CLIs never needed — per-request span
// traces, a sliding-window latency histogram (so p50/p99 describe the last
// minute under load, not the process lifetime), a slow-query flight
// recorder, and an OpenMetrics /metrics endpoint.
//
// The read path is lock-light: synopses are published into an immutable map
// swapped atomically (the same read-mostly pattern eval's rank arrays use),
// so request goroutines never contend on the catalog. Each request gets a
// deadline-bounded context carrying an obs.Trace; the eval layer records its
// plan/memo/emit phases onto it.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
)

// DefaultDeadline bounds request handling when Options.Deadline is unset.
const DefaultDeadline = 2 * time.Second

// Options configures a Server.
type Options struct {
	// Deadline is the per-request processing budget; requests past it get
	// 503 with a deadline_exceeded error. 0 means DefaultDeadline;
	// negative disables the deadline.
	Deadline time.Duration
	// MaxEmbeddings caps embedding enumeration per query (eval.Options).
	// 0 keeps eval's default.
	MaxEmbeddings int
	// MaxResultBytes is the default per-request answer budget in bytes,
	// converted to a result-synopsis node budget at about 64 bytes per node
	// and served through the streaming top-k path (eval.Options.Limit). An
	// explicit ?k= on the request may pick a smaller budget but is clamped
	// to this cap (including negative, i.e. unbounded, k). 0 means
	// unbudgeted batch emission. This is the serving daemon's per-query
	// memory cap: a query whose full answer would be arbitrarily large
	// emits its highest-contribution nodes and a bound on what was cut.
	MaxResultBytes int
	// MaxInflight caps the requests evaluating concurrently; arrivals
	// beyond it wait in a short queue, and beyond that are shed with 503
	// before any parse or eval work. 0 means 2x GOMAXPROCS; negative
	// disables admission control entirely.
	MaxInflight int
	// MaxQueue bounds the admission wait queue. 0 means 4x the effective
	// MaxInflight; negative means no waiting room, so saturation sheds
	// immediately.
	MaxQueue int
	// SlowTraces is the flight recorder's capacity: how many of the
	// slowest request traces /debug/obs/slow retains. 0 means
	// obs.DefaultFlightRecorderSize.
	SlowTraces int
	// Metrics receives the server's serve.* metrics and the eval.approx.*
	// metrics of the queries it runs. Nil selects obs.Default.
	Metrics *obs.Registry
}

// Server answers selectivity estimates over HTTP. Construct with New, add
// synopses with AddSketch, and mount Handler on an http.Server.
type Server struct {
	reg            *obs.Registry
	rec            *obs.FlightRecorder
	deadline       time.Duration
	maxEmb         int
	maxResultBytes int
	// injectDelay is a service floor every admitted request sleeps through
	// before parsing; only the overload test sets it, so a queueing
	// experiment on small test synopses has a known capacity.
	injectDelay time.Duration

	// catalog is an immutable map of the published datasets, swapped
	// wholesale by publish, so lookups are a single atomic load.
	catalog atomic.Pointer[map[string]dataset]
	mu      sync.Mutex // serializes publish

	gate     *admissionGate // nil: admission control disabled
	draining atomic.Bool

	mRequests        *obs.Counter
	mUpdates         *obs.Counter
	mErrors          *obs.Counter
	mDeadline        *obs.Counter
	mDeadlinePartial *obs.Counter
	mOverflow        *obs.Counter
	mNotFound        *obs.Counter
	mRetained        *obs.Counter
	mDrainDone       *obs.Counter
	mDrainShed       *obs.Counter
	gInflight        *obs.Gauge
	gSketches        *obs.Gauge
	wLatency         *obs.WindowedHistogram
}

// New builds a Server.
func New(opts Options) *Server {
	reg := obs.Or(opts.Metrics)
	deadline := opts.Deadline
	if deadline == 0 {
		deadline = DefaultDeadline
	}
	s := &Server{
		reg:            reg,
		rec:            obs.NewFlightRecorder(opts.SlowTraces),
		deadline:       deadline,
		maxEmb:         opts.MaxEmbeddings,
		maxResultBytes: opts.MaxResultBytes,

		gate: newAdmissionGate(reg, opts.MaxInflight, opts.MaxQueue),

		mRequests:        reg.Counter("serve.http.requests"),
		mUpdates:         reg.Counter("serve.http.updates"),
		mErrors:          reg.Counter("serve.http.errors"),
		mDeadline:        reg.Counter("serve.http.deadline_exceeded"),
		mDeadlinePartial: reg.Counter("serve.http.deadline_partial"),
		mOverflow:        reg.Counter("serve.http.tuple_overflow"),
		mNotFound:        reg.Counter("serve.http.not_found"),
		mRetained:        reg.Counter("trace.slow.retained"),
		mDrainDone:       reg.Counter("serve.drain.completed"),
		mDrainShed:       reg.Counter("serve.drain.shed"),
		gInflight:        reg.Gauge("serve.http.inflight"),
		gSketches:        reg.Gauge("serve.catalog.sketches"),
		wLatency:         reg.Windowed("serve.request.latency_seconds"),
	}
	s.catalog.Store(&map[string]dataset{})
	return s
}

// dataset is one published dataset. A static dataset has a synopsis and,
// when it was built from a document, a summary function for ?mode=exact
// that builds the document's count-stable summary sketch once, on first
// use; a live dataset has only its tier stack, whose current view answers
// approximate estimates and whose Summary answers exact ones.
type dataset struct {
	sk      *sketch.Sketch
	summary func() *sketch.Sketch
	stack   *tier.Stack
}

// FlightRecorder exposes the server's slow-trace recorder (for tests and
// embedding binaries).
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.rec }

// Registry returns the registry the server reports into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// publish swaps in a copy of the catalog with edit applied. In-flight
// requests keep the catalog they already loaded.
func (s *Server) publish(edit func(cat map[string]dataset)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.catalog.Load()
	next := make(map[string]dataset, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	edit(next)
	s.catalog.Store(&next)
	s.gSketches.Set(int64(len(next)))
}

// AddSketch publishes a static synopsis under the given dataset name,
// replacing any previous dataset of that name but keeping the document
// summary of a static one.
func (s *Server) AddSketch(name string, sk *sketch.Sketch) {
	s.publish(func(cat map[string]dataset) { cat[name] = dataset{sk: sk, summary: cat[name].summary} })
}

// AddIndex attaches the document behind a static dataset published with
// AddSketch, enabling ?mode=exact for it: the first exact request builds
// the document's count-stable summary, and every exact request answers
// from it. Only ix.Doc is kept, and nothing is built here. Synopsis-only
// deployments (loading .syn files) have no document; exact requests
// against such datasets get a structured 404. A name with no published
// synopsis is left alone.
func (s *Server) AddIndex(name string, ix *eval.Index) {
	doc := ix.Doc
	summary := sync.OnceValue(func() *sketch.Sketch { return sketch.FromStable(stable.Build(doc)) })
	s.publish(func(cat map[string]dataset) {
		if d, ok := cat[name]; ok && d.sk != nil {
			d.summary = summary
			cat[name] = d
		}
	})
}

// AddStack publishes a live (updatable) dataset, replacing any previous
// dataset of that name: estimates answer over the stack's base+delta view
// and POST /update mutates it.
func (s *Server) AddStack(name string, st *tier.Stack) {
	s.publish(func(cat map[string]dataset) { cat[name] = dataset{stack: st} })
}

// SetCatalog atomically replaces the whole catalog with static synopses.
// In-flight requests keep the catalog they already resolved against; only
// requests that look up a dataset after the swap see the new set.
func (s *Server) SetCatalog(sketches map[string]*sketch.Sketch) {
	s.publish(func(cat map[string]dataset) {
		clear(cat)
		for k, sk := range sketches {
			cat[k] = dataset{sk: sk}
		}
	})
}

// StartDrain puts the server into draining mode: new requests are shed with
// 503 code "draining" while requests already admitted run to completion.
// Call before http.Server.Shutdown so the connection drain and the work
// drain agree.
func (s *Server) StartDrain() { s.draining.Store(true) }

// DrainStats reports how the drain went: requests that completed normally
// after the drain started vs. requests shed because they arrived during it.
func (s *Server) DrainStats() (completed, shed int64) {
	return s.mDrainDone.Value(), s.mDrainShed.Value()
}

// Datasets returns the published dataset names, sorted.
func (s *Server) Datasets() []string {
	cat := *s.catalog.Load()
	names := make([]string, 0, len(cat))
	for n := range cat {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resolve finds a published dataset; an empty name resolves iff exactly
// one candidate is published. live narrows the candidates to live
// datasets, as /update needs.
func (s *Server) resolve(name string, live bool) (dataset, string, bool) {
	cat := *s.catalog.Load()
	if name != "" {
		d, ok := cat[name]
		return d, name, ok && (!live || d.stack != nil)
	}
	var (
		only  dataset
		found string
		n     int
	)
	for k, d := range cat {
		if !live || d.stack != nil {
			only, found = d, k
			n++
		}
	}
	return only, found, n == 1
}

// Handler returns the server's full HTTP surface: the estimate API plus the
// obs debug mux (/metrics, /debug/obs, /debug/obs/slow, /debug/pprof/*).
func (s *Server) Handler() http.Handler {
	mux := obs.DebugMux(s.reg, s.rec)
	mux.HandleFunc("/estimate", s.handleEstimate)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/datasets", s.handleDatasets)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// EstimateResponse is the JSON body of a successful /estimate call.
type EstimateResponse struct {
	TraceID     string  `json:"trace_id"`
	Dataset     string  `json:"dataset"`
	Mode        string  `json:"mode"`
	Query       string  `json:"query"`
	Selectivity float64 `json:"selectivity"`
	ResultNodes int     `json:"result_nodes"`
	Empty       bool    `json:"empty"`
	Truncated   bool    `json:"truncated"`
	// Partial marks a streamed answer that did not cover the full result
	// graph (node budget or deadline); TopK then carries the coverage and
	// the truncation bound.
	Partial bool          `json:"partial,omitempty"`
	TopK    *TopKResponse `json:"topk,omitempty"`
	// Tier reports how a live (updatable) dataset's answer was merged from
	// its base sketch and delta tiers; nil for static datasets.
	Tier    *TierResponse `json:"tier,omitempty"`
	Seconds float64       `json:"seconds"`
}

// TierResponse is the base+delta breakdown of an estimate served from a
// tier stack.
type TierResponse struct {
	// Epoch counts compactions applied to the base; Tiers is the number of
	// delta tiers consulted (sealed segments plus open units, two sketch
	// evaluations each); DeltaElems is the signed element delta they carry
	// relative to the base.
	Epoch      uint64 `json:"epoch"`
	Tiers      int    `json:"tiers"`
	DeltaElems int    `json:"delta_elems"`
	// BaseSelectivity is the base sketch's estimate alone; Delta is the
	// signed correction the tiers contributed.
	BaseSelectivity float64 `json:"base_selectivity"`
	Delta           float64 `json:"delta"`
	// Compacting reports an in-flight background compaction at answer
	// time (the answer did not wait on it).
	Compacting bool `json:"compacting,omitempty"`
}

// TopKResponse is the streaming-emission report on a budgeted answer
// (?k= or -max-result-bytes): how much was emitted and an upper bound on
// the answer mass that was truncated.
type TopKResponse struct {
	K          int `json:"k"`
	Expanded   int `json:"expanded"`
	Discovered int `json:"discovered"`
	// EmittedMass is meaningful only when EmittedMassFinite: a divergent
	// prefix mass leaves the field at 0, and without the flag a client
	// could not tell "nothing emitted" from "emitted mass overflowed" —
	// exactly the cases the non-finite guard exists for.
	EmittedMass       float64 `json:"emitted_mass"`
	EmittedMassFinite bool    `json:"emitted_mass_finite"`
	// ErrorBound is meaningful only when ErrorBoundFinite; a recursive
	// synopsis can make the truncated chain mass genuinely unbounded, and
	// JSON has no encoding for +Inf.
	ErrorBound       float64 `json:"error_bound"`
	ErrorBoundFinite bool    `json:"error_bound_finite"`
	Exhausted        bool    `json:"exhausted"`
	// WorkCapped reports that the evaluator's shared enumeration pool ran
	// dry: the truncated enumerations' missing mass is included in
	// ErrorBound, but the prefix stopped short of the node budget.
	WorkCapped  bool `json:"work_capped,omitempty"`
	DeadlineHit bool `json:"deadline_hit,omitempty"`
}

// topKResponse converts eval's info into the wire form, routing non-finite
// masses away from the JSON encoder (encoding/json rejects +Inf outright —
// the whole response would turn into a 200 with an empty body).
func topKResponse(info *eval.TopKInfo) *TopKResponse {
	r := &TopKResponse{
		K:           info.K,
		Expanded:    info.Expanded,
		Discovered:  info.Discovered,
		Exhausted:   info.Exhausted,
		WorkCapped:  info.WorkCapped,
		DeadlineHit: info.DeadlineHit,
	}
	if jsonFinite(info.EmittedMass) {
		r.EmittedMass = info.EmittedMass
		r.EmittedMassFinite = true
	}
	if jsonFinite(info.ErrorBound) {
		r.ErrorBound = info.ErrorBound
		r.ErrorBoundFinite = true
	}
	return r
}

// jsonFinite reports whether encoding/json can carry f at all.
func jsonFinite(f float64) bool {
	return !math.IsInf(f, 0) && !math.IsNaN(f)
}

// errorResponse is the JSON body of a failed call. Code is a stable
// machine-readable discriminator (missing_query, parse_error,
// unknown_dataset, deadline_exceeded, shed_queue_full, shed_deadline,
// draining); Error is the human-readable detail. 503 bodies additionally
// carry RetryAfterSeconds, mirroring the Retry-After header, so clients
// behind header-stripping proxies still see the backoff hint.
type errorResponse struct {
	Error             string `json:"error"`
	Code              string `json:"code,omitempty"`
	TraceID           string `json:"trace_id,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// retryAfterSeconds picks the backoff hint for a refused request, by shed
// code. The old flat one-deadline hint was wrong in two modes: a draining
// server will never take the retry — the client should fail over to
// another replica immediately, not politely wait out a deadline that has
// nothing to do with recovery — and a gate with no waiting room
// (-max-queue negative) sheds on slot saturation, where slots turn over in
// about one service time, far sooner than one deadline. Both advertise the
// minimum hint; queue-full sheds with a real queue keep the deadline-based
// hint (the queue needs roughly that long to drain). Never zero or
// negative: a "Retry-After: 0" invites an immediate retry storm.
func (s *Server) retryAfterSeconds(code string) int {
	switch code {
	case codeDraining:
		return 1
	case shedQueueFull:
		if s.gate != nil && s.gate.queueCap() == 0 {
			return 1
		}
	}
	if sec := int(s.deadline / time.Second); sec > 1 {
		return sec
	}
	return 1
}

// resultLimit derives the per-request result-node budget. An explicit ?k=
// selects the budget (negative: unbounded streaming — full answer plus TopK
// accounting); when the operator configured MaxResultBytes, the derived
// node budget is both the default and a hard ceiling on ?k=, so an
// untrusted client can shrink its answer but never lift the daemon's
// per-query memory cap (a negative k is clamped to the cap too). Without
// MaxResultBytes, no ?k= (ks empty) means 0 (batch emission).
func (s *Server) resultLimit(ks string) (int, error) {
	capK := 0
	if s.maxResultBytes > 0 {
		capK = s.maxResultBytes / resultNodeBytes
		if capK < 1 {
			capK = 1
		}
	}
	if ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil || k == 0 {
			return 0, fmt.Errorf("k must be a non-zero integer (negative: unbounded streaming), got %q", ks)
		}
		if capK > 0 && (k < 0 || k > capK) {
			k = capK
		}
		return k, nil
	}
	return capK, nil
}

// maxQueryBytes bounds /estimate query text. Parsing and evaluation
// recurse per query edge and their memory grows with the text, so a
// hostile query could otherwise pin a serving slot with hundreds of
// megabytes; the longest query the workload generators emit is under
// 1 KB. The text is refused before a trace records it or the parser
// reads it.
const maxQueryBytes = 8 << 10

// resultNodeBytes is the approximate wire-and-heap cost of one
// result-synopsis node (ID, variable, label, source, count, a couple of
// edges), used to convert a byte budget into a node budget.
const resultNodeBytes = 64

// handleEstimate serves GET /estimate?q=<twig query>[&dataset=<name>]
// [&k=<node budget>][&mode=approx|exact]: it admits the request through the
// admission gate, parses the query, evaluates it under the request
// deadline, and reports the selectivity. The mode picks the synopsis, not
// the evaluator: approx mode reads the dataset's TreeSketch (a live
// dataset's base+delta view), exact mode the count-stable summary of its
// document, on which the same evaluation is exact (Section 4.3). Without a
// node budget the answer is counted (eval.CountContext, or the stack's
// CountContext on a live dataset): the response carries only the
// selectivity and the result synopsis' size, so the synopsis is never
// built. With one — an explicit ?k= or the server-wide MaxResultBytes
// default — evaluation streams the result best-first and the response
// reports coverage plus a bound on the truncated remainder; exact mode
// still reports the summary's full count as its selectivity. The request
// runs under an obs.Trace whose admission/parse/plan/memo/emit phase
// breakdown lands in the flight recorder when the request ranks among the
// slowest.
//
// Overload is handled before work is done: a draining server, a full
// admission queue, or a queue wait that exhausts the deadline budget all
// produce an immediate 503 with a Retry-After hint, without touching the
// parser or the synopsis. The latency window therefore measures answered
// requests only — sheds are visible in the serve.admission.* counters and
// the queue-wait window instead.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	s.gInflight.Add(1)
	defer s.gInflight.Add(-1)
	span := s.reg.StartSpan("serve.request.handle")
	defer span.End()

	ctx := r.Context()
	if s.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.deadline)
		defer cancel()
	}

	params := r.URL.Query()
	qsrc := params.Get("q")
	if qsrc == "" {
		s.fail(w, http.StatusBadRequest, codeMissingQuery, "", "missing q parameter")
		return
	}
	if len(qsrc) > maxQueryBytes {
		s.fail(w, http.StatusBadRequest, codeQueryTooLong, "",
			fmt.Sprintf("query is %d bytes, over the %d-byte limit", len(qsrc), maxQueryBytes))
		return
	}
	tr := s.reg.NewTrace(qsrc)
	ctx = obs.ContextWithTrace(ctx, tr)

	if s.draining.Load() {
		s.mDrainShed.Inc()
		s.shed(w, tr, codeDraining, "server is draining")
		return
	}
	if s.gate != nil {
		release, reason := s.gate.acquire(ctx, tr)
		if release == nil {
			s.shed(w, tr, reason, "server overloaded: "+reason)
			return
		}
		defer release()
	}
	if s.injectDelay > 0 {
		ds := tr.StartSpan("serve.inject_delay")
		time.Sleep(s.injectDelay)
		ds.End()
	}

	limit, err := s.resultLimit(params.Get("k"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, codeBadK, tr.IDString(), err.Error())
		return
	}
	mode := params.Get("mode")
	if mode == "" {
		mode = "approx"
	}
	if mode != "approx" && mode != "exact" {
		s.fail(w, http.StatusBadRequest, codeBadMode, tr.IDString(),
			fmt.Sprintf("mode must be approx or exact, got %q", mode))
		return
	}

	ps := tr.StartSpan("serve.parse")
	q, err := query.Parse(qsrc)
	ps.End()
	if err != nil {
		s.fail(w, http.StatusBadRequest, codeParseError, tr.IDString(), fmt.Sprintf("parse: %v", err))
		return
	}

	d, dsName, ok := s.resolve(params.Get("dataset"), false)
	if !ok {
		s.mNotFound.Inc()
		s.fail(w, http.StatusNotFound, codeUnknownDataset, tr.IDString(),
			fmt.Sprintf("unknown dataset %q (have %v)", params.Get("dataset"), s.Datasets()))
		return
	}
	tr.SetLabel("dataset", dsName)

	// Without a node budget the answer is the selectivity and the result
	// synopsis' size, so the evaluation counts instead of materializing
	// the synopsis; a budgeted one streams it (eval.Options.Limit).
	opts := eval.Options{MaxEmbeddings: s.maxEmb, Limit: limit, Metrics: s.reg}
	var (
		c        eval.CountResult // the answer's size and flags
		sel      float64
		topk     *eval.TopKInfo
		tierResp *TierResponse
	)
	switch {
	case mode == "exact":
		summary := d.summary
		if d.stack != nil {
			summary = d.stack.Summary
		}
		if summary == nil {
			s.mNotFound.Inc()
			s.fail(w, http.StatusNotFound, codeNoExactIndex, tr.IDString(),
				fmt.Sprintf("dataset %q has no document (built from a synopsis only); exact mode needs -doc", dsName))
			return
		}
		ss := tr.StartSpan("serve.summary")
		sk := summary()
		ss.End()
		// The selectivity is always the summary's full count; a node
		// budget adds the streamed result's size and coverage.
		c = eval.CountContext(ctx, sk, q, opts)
		sel = c.Selectivity
		if !c.Canceled && !jsonFinite(sel) {
			s.overflow(w, tr, q)
			return
		}
		if limit != 0 && !c.Canceled {
			res := eval.ApproxContext(ctx, sk, q, opts)
			c.Nodes, topk = len(res.Nodes), res.TopK
		}
	case d.stack != nil:
		// Live dataset: answer over the stack's current immutable view
		// (base+delta), which never blocks on an in-flight compaction.
		st := d.stack
		var info tier.Info
		if limit == 0 {
			c, sel, info = st.CountContext(ctx, q, opts)
		} else {
			var res *eval.Result
			res, sel, info = st.EstimateContext(ctx, q, opts)
			c, topk = shapeOf(res), res.TopK
		}
		tierResp = &TierResponse{
			Epoch:           info.Epoch,
			Tiers:           info.Tiers,
			DeltaElems:      info.DeltaElems,
			BaseSelectivity: jsonSafe(info.BaseSelectivity),
			Delta:           jsonSafe(info.Delta),
			Compacting:      st.Compacting(),
		}
	case limit == 0:
		c = eval.CountContext(ctx, d.sk, q, opts)
		sel = c.Selectivity
	default:
		res := eval.ApproxContext(ctx, d.sk, q, opts)
		c, topk = shapeOf(res), res.TopK
		if !res.Canceled {
			sel = res.Selectivity()
		}
	}
	if c.Canceled {
		// The evaluation aborted at the request deadline with no usable
		// synopsis; finishEstimate sees the expired ctx and no TopK block
		// and answers the standard deadline 503.
		s.finishEstimate(w, ctx, tr, EstimateResponse{
			TraceID: tr.IDString(),
			Dataset: dsName,
			Mode:    mode,
			Query:   q.String(),
		})
		return
	}

	es := tr.StartSpan("serve.emit")
	resp := EstimateResponse{
		TraceID:     tr.IDString(),
		Dataset:     dsName,
		Mode:        mode,
		Query:       q.String(),
		Selectivity: jsonSafe(sel),
		ResultNodes: c.Nodes,
		Empty:       c.Empty && sel == 0,
		Truncated:   c.Truncated,
		Tier:        tierResp,
	}
	if topk != nil {
		resp.TopK = topKResponse(topk)
		resp.Partial = !topk.Exhausted
	}
	es.End()
	s.finishEstimate(w, ctx, tr, resp)
}

// shapeOf is what an answer reports of a materialized result synopsis: its
// size and flags. Its Selectivity stays 0; on a live dataset the answer's
// selectivity is the merged one.
func shapeOf(res *eval.Result) eval.CountResult {
	return eval.CountResult{Nodes: len(res.Nodes), Empty: res.Empty, Truncated: res.Truncated, Canceled: res.Canceled}
}

// overflow answers an exact count that overflowed float64. That is a
// property of the query, not a server fault: it gets a 422 with a stable
// code instead of an unstructured 500 (or worse, a body the JSON encoder
// rejects and truncates). The trace is shed-tagged so overload forensics
// see these alongside admission sheds.
func (s *Server) overflow(w http.ResponseWriter, tr *obs.Trace, q *query.Query) {
	s.mOverflow.Inc()
	tr.SetLabel("shed", codeTupleOverflow)
	tr.Finish()
	if s.rec.Record(tr) {
		s.mRetained.Inc()
	}
	s.writeJSON(w, http.StatusUnprocessableEntity, errorResponse{
		Error:   (&eval.TupleOverflowError{Query: q.String()}).Error(),
		Code:    codeTupleOverflow,
		TraceID: tr.IDString(),
	})
}

// finishEstimate settles a computed answer against the deadline. The
// deadline is enforced at phase boundaries rather than inside the
// enumeration loops: a request that finished over budget is answered with
// 503 so closed-loop clients see the overload, even though its work is
// already done — unless the request ran in streaming mode and emitted at
// least one node, in which case the partial answer plus its truncation
// bound is worth more to the client than a retry hint, and goes out as a
// 200 marked Partial. A streamed answer whose expansion Exhausted the
// result graph is complete — the deadline merely lapsed after the work
// finished — so it goes out as a normal 200 with Partial false and eval's
// own DeadlineHit report intact.
func (s *Server) finishEstimate(w http.ResponseWriter, ctx context.Context, tr *obs.Trace, resp EstimateResponse) {
	total := tr.Finish()
	resp.Seconds = total.Seconds()
	if s.rec.Record(tr) {
		s.mRetained.Inc()
	}
	if ctx.Err() != nil && (resp.TopK == nil || !resp.TopK.Exhausted) {
		if resp.TopK != nil && resp.TopK.Expanded >= 1 {
			resp.Partial = true
			resp.TopK.DeadlineHit = true
			s.mDeadlinePartial.Inc()
		} else {
			s.mDeadline.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(codeDeadlineExceeded)))
			s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{
				Error:             fmt.Sprintf("deadline exceeded after %s", total.Round(time.Microsecond)),
				Code:              codeDeadlineExceeded,
				TraceID:           tr.IDString(),
				RetryAfterSeconds: s.retryAfterSeconds(codeDeadlineExceeded),
			})
			return
		}
	}
	s.wLatency.Observe(total.Seconds())
	if s.draining.Load() {
		s.mDrainDone.Inc()
	}
	// The body carries the trace's total, so its encode is timed after
	// the trace is finished, on the registry alone.
	enc := s.reg.StartSpan("serve.encode")
	s.writeJSON(w, http.StatusOK, resp)
	enc.End()
}

// jsonSafe clamps non-finite floats (which encoding/json rejects, killing
// the whole response body) to the largest representable value with the
// right sign.
func jsonSafe(f float64) float64 {
	if math.IsInf(f, 1) {
		return math.MaxFloat64
	}
	if math.IsInf(f, -1) {
		return -math.MaxFloat64
	}
	return f
}

// shed answers a request the server refuses to work on: 503 with a
// machine-readable code, a Retry-After hint, and the trace ID. The trace is
// finished (with a "shed" label) and offered to the flight recorder so an
// operator inspecting /debug/obs/slow during an overload sees what was
// turned away, not just what ran.
func (s *Server) shed(w http.ResponseWriter, tr *obs.Trace, code, msg string) {
	tr.SetLabel("shed", code)
	tr.Finish()
	if s.rec.Record(tr) {
		s.mRetained.Inc()
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(code)))
	s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error:             msg,
		Code:              code,
		TraceID:           tr.IDString(),
		RetryAfterSeconds: s.retryAfterSeconds(code),
	})
}

// handleDatasets serves GET /datasets: the published dataset names.
func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Datasets())
}

// fail answers a client error (4xx). Sheds and deadline 503s do not go
// through here: they are server-side refusals, not client mistakes, and
// serve.http.errors counts only the latter.
func (s *Server) fail(w http.ResponseWriter, status int, code, traceID, msg string) {
	s.mErrors.Inc()
	s.writeJSON(w, status, errorResponse{Error: msg, Code: code, TraceID: traceID})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
