// Command tsserve is the TreeSketch query-serving daemon: it loads one or
// more synopses (or builds them from documents on the fly) and serves
// selectivity estimates over HTTP with per-request deadlines, bounded
// admission (overload sheds 503 + Retry-After before any eval work),
// request-scoped traces, windowed tail-latency metrics, runtime/GC
// telemetry, and a full debug surface.
//
// Serve a prebuilt synopsis:
//
//	tsserve -synopsis xmark.syn
//	tsserve -synopsis xmark=xmark.syn,imdb=imdb.syn -addr :9000
//
// Build from a document at startup (live by default: the dataset accepts
// POST /update and answers estimates over a tiered base+delta synopsis with
// non-blocking background compaction; -live=false serves a frozen
// snapshot instead). Either way ?mode=exact answers true counts from the
// document's count-stable summary; synopsis-only datasets have no
// document and refuse it:
//
//	tsserve -doc xmark.xml -budget 20
//
// Endpoints:
//
//	GET  /estimate?q=//item[//keyword]{//name?}&dataset=xmark
//	POST /update           insert/delete a subtree in a live dataset
//	GET  /datasets         published dataset names
//	GET /healthz           liveness probe
//	GET /metrics           OpenMetrics exposition (windowed p50/p99, rates)
//	GET /debug/obs         full JSON metrics snapshot
//	GET /debug/obs/slow    the K slowest request traces with phase spans
//	GET /debug/pprof/      CPU/heap/goroutine profiling
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
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

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		synopses = flag.String("synopsis", "", "comma-separated synopsis files to serve, each 'name=path' or a bare path (dataset name derived from the filename)")
		docs     = flag.String("doc", "", "comma-separated XML documents to build synopses from at startup, each 'name=path' or a bare path")
		budgetKB = flag.Int("budget", 50, "synopsis budget in KB when building from -doc")
		live     = flag.Bool("live", true, "serve -doc datasets as live tier stacks (POST /update, base+delta estimates, background compaction); false freezes them at startup; ?mode=exact works either way")
		deadline = flag.Duration("deadline", serve.DefaultDeadline, "per-request processing deadline (<=0 disables)")
		maxEmb   = flag.Int("max-embeddings", 0, "cap on embedding enumeration per query (0: eval default)")
		maxResB  = flag.Int("max-result-bytes", 0, "per-request answer budget in bytes, served via streaming top-k emission with a truncation bound (0: unbudgeted; ?k= on a request overrides)")
		slowK    = flag.Int("slow", obs.DefaultFlightRecorderSize, "how many slowest request traces /debug/obs/slow retains")

		maxInflight = flag.Int("max-inflight", 0, "admission gate: max concurrently evaluating requests (0: 2x GOMAXPROCS, negative: disabled)")
		maxQueue    = flag.Int("max-queue", 0, "admission gate: max requests waiting for a slot (0: 4x effective -max-inflight, negative: no queue)")
		rtInterval  = flag.Duration("runtime-metrics", obs.DefaultRuntimeInterval, "runtime.* telemetry sampling interval (<=0 disables the collector)")
	)
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()
	if *synopses == "" && *docs == "" {
		fatal(errors.New("at least one of -synopsis or -doc is required"))
	}
	if err := obsFlags.Start(); err != nil {
		fatal(err)
	}

	srv := serve.New(serve.Options{
		Deadline:       *deadline,
		MaxEmbeddings:  *maxEmb,
		MaxResultBytes: *maxResB,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		SlowTraces:     *slowK,
	})
	if *rtInterval > 0 {
		rc := obs.StartRuntimeCollector(srv.Registry(), *rtInterval)
		defer rc.Stop()
	}

	for name, path := range parseNamedList(*synopses) {
		sk, err := sketch.LoadFile(path)
		if err != nil {
			fatal(err)
		}
		srv.AddSketch(name, sk)
		fmt.Printf("tsserve: loaded %s from %s (%d nodes)\n", name, path, len(sk.Nodes))
	}
	for name, path := range parseNamedList(*docs) {
		doc, err := xmltree.ParseFile(path)
		if err != nil {
			fatal(err)
		}
		if *live {
			// Live dataset: the tier stack owns the document from here on
			// (all mutation goes through POST /update); approximate
			// estimates answer over its base+delta view and exact ones over
			// the summary its maintainer keeps.
			stk, err := tier.New(doc, tier.Options{
				BudgetBytes: *budgetKB << 10,
				Metrics:     srv.Registry(),
			})
			if err != nil {
				fatal(err)
			}
			srv.AddStack(name, stk)
			fmt.Printf("tsserve: built %s from %s: %d elems, live (POST /update on)\n",
				name, path, doc.Size())
			continue
		}
		st := stable.Build(doc)
		sk, stats := tsbuild.Build(st, tsbuild.Options{BudgetBytes: *budgetKB << 10})
		srv.AddSketch(name, sk)
		// Frozen doc-built datasets keep their document, whose summary the
		// first /estimate?mode=exact builds; synopsis-only datasets have no
		// document.
		srv.AddIndex(name, eval.NewIndex(doc))
		fmt.Printf("tsserve: built %s from %s: %d elems -> %.1f KB in %.2fs (exact mode on)\n",
			name, path, doc.Size(), float64(stats.FinalBytes)/1024, stats.Elapsed.Seconds())
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("tsserve: serving %v on http://%s (try /estimate?q=...&dataset=..., /metrics, /debug/obs/slow)\n",
		srv.Datasets(), *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case sig := <-sigCh:
		fmt.Printf("tsserve: %v, draining\n", sig)
		// Shed new work first, then let the HTTP server wait out the
		// requests that were already admitted.
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fatal(err)
		}
		completed, shed := srv.DrainStats()
		fmt.Printf("tsserve: drained (%d completed, %d shed)\n", completed, shed)
	}
	if err := obsFlags.Finish(); err != nil {
		fatal(err)
	}
}

// parseNamedList splits "a=x.syn,b=y.syn" (or bare paths) into name->path.
// Bare paths derive the dataset name from the filename stem.
func parseNamedList(s string) map[string]string {
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, path, found := strings.Cut(part, "=")
		if !found {
			path = part
			name = stem(part)
		}
		out[name] = path
	}
	return out
}

// stem is the filename without directory or extension.
func stem(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tsserve:", err)
	os.Exit(1)
}
