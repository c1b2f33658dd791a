package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/serve"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// dataset is one document a workload serves: its catalog name, its XML
// bytes, and the synopsis budget.
type dataset struct {
	name     string
	xml      []byte
	budgetKB int
}

// stack is one stood-up tsserve in miniature: the serve.Server the daemon
// would build for the datasets, listening on loopback.
type stack struct {
	srv      *serve.Server
	handler  http.Handler
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve returns
	rc       *obs.RuntimeCollector
	base     string                    // http://127.0.0.1:<port>
	sketches map[string]*sketch.Sketch // static datasets
	stacks   map[string]*tier.Stack    // live datasets
}

// standUp brings the datasets up with the calls cmd/tsserve makes —
// serve.New and its runtime collector, xmltree.Parse per document, then
// tier.New for a live dataset or stable.Build, tsbuild.Build and an
// eval.Index for a static one, then an http.Server on 127.0.0.1:0 — and
// returns once /healthz answers, with the time that took. Every metric goes
// to reg. A non-nil tr gets one span per step.
func standUp(reg *obs.Registry, ds []dataset, live bool, tr *obs.Trace) (*stack, time.Duration, error) {
	start := time.Now()
	srv := serve.New(serve.Options{Metrics: reg})
	st := &stack{
		srv:      srv,
		rc:       obs.StartRuntimeCollector(reg, obs.DefaultRuntimeInterval),
		sketches: make(map[string]*sketch.Sketch),
		stacks:   make(map[string]*tier.Stack),
	}
	for _, d := range ds {
		if err := st.add(reg, d, live, tr); err != nil {
			st.close()
			return nil, 0, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	st.handler = srv.Handler()
	st.hs = &http.Server{Handler: st.handler, ReadHeaderTimeout: 5 * time.Second}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		// Serve returns http.ErrServerClosed once close shuts it down.
		_ = st.hs.Serve(ln)
	}()
	st.base = "http://" + ln.Addr().String()
	sp := tr.StartSpan("http.healthz")
	err = healthz(st.base)
	sp.End()
	if err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

// add parses and builds one dataset and publishes it.
func (st *stack) add(reg *obs.Registry, d dataset, live bool, tr *obs.Trace) error {
	sp := tr.StartSpan("xmltree.parse")
	doc, err := xmltree.Parse(bytes.NewReader(d.xml))
	sp.End()
	if err != nil {
		return fmt.Errorf("parse %s: %w", d.name, err)
	}
	budget := d.budgetKB << 10
	if live {
		sp = tr.StartSpan("tier.new")
		stk, err := tier.New(doc, tier.Options{BudgetBytes: budget, Metrics: reg})
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		st.srv.AddStack(d.name, stk)
		st.stacks[d.name] = stk
		return nil
	}
	sp = tr.StartSpan("stable.build")
	syn := stable.Build(doc)
	sp.End()
	sp = tr.StartSpan("tsbuild.build")
	sk, _ := tsbuild.Build(syn, tsbuild.Options{BudgetBytes: budget, Metrics: reg})
	sp.End()
	sp = tr.StartSpan("serve.add")
	st.srv.AddSketch(d.name, sk)
	st.srv.AddIndex(d.name, eval.NewIndex(doc))
	sp.End()
	st.sketches[d.name] = sk
	return nil
}

// close stops the HTTP server and the runtime collector and waits out any
// background compaction, so no goroutine of the stack outlives it.
func (st *stack) close() {
	if st.hs != nil {
		st.hs.Close()
		<-st.served
	}
	for _, stk := range st.stacks {
		stk.Compact()
	}
	st.rc.Stop()
}

// healthz waits for GET /healthz to answer 200.
func healthz(base string) error {
	c := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// client is the load generator's HTTP client: keep-alive connections to
// the stack, at most one per closed-loop worker.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends req and reads the whole response body into buf.
func (c *client) do(req *http.Request, buf *bytes.Buffer) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}
