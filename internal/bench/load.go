package bench

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"treesketch/internal/exp"
	"treesketch/internal/obs"
	"treesketch/internal/serve"
	"treesketch/internal/tsbuild"
)

// benchServe is the under-load serving leg: it stands up the serve.Server
// over a real TCP listener, drives it with closed-loop concurrent HTTP
// clients for the configured duration, and then reads the windowed latency
// percentiles back out of the server's own /metrics exposition — so the
// numbers the gate tracks are exactly the numbers an operator's scraper
// would see, measured under concurrency rather than as per-query minima in
// a quiet process.
func benchServe(res *Result, r *exp.Runner, cfg Config, ds string) error {
	progress := func(format string, args ...any) {
		if cfg.Out != nil {
			fmt.Fprintf(cfg.Out, "bench: "+format+"\n", args...)
		}
	}
	budgetKB := cfg.ServeBudgetKB
	key := fmt.Sprintf("serve/%s/%02dkb", ds, budgetKB)

	// The serving leg gets its own registry: its windowed histograms and
	// serve.* counters describe this load run only, and the grid's own
	// obs.Default snapshot stays comparable with pre-serving baselines.
	sreg := obs.NewRegistry()
	sk, _ := tsbuild.Build(r.Stable(ds), tsbuild.Options{BudgetBytes: budgetKB * 1024, Metrics: sreg})
	srv := serve.New(serve.Options{Metrics: sreg})
	srv.AddSketch(ds, sk)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("bench: serve leg listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(done)
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	base := "http://" + ln.Addr().String()

	// Closed-loop clients cycle the same workload the latency legs use,
	// pre-encoded into URLs.
	w := r.Workload(ds, cfg.WorkloadSize, false)
	if len(w) == 0 {
		return fmt.Errorf("bench: serve leg: empty workload for %s", ds)
	}
	urls := make([]string, len(w))
	for i, item := range w {
		urls[i] = base + "/estimate?dataset=" + url.QueryEscape(ds) + "&q=" + url.QueryEscape(item.Q.String())
	}
	clients := cfg.ServeClients
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients * 2,
		MaxIdleConnsPerHost: clients * 2,
	}}
	defer client.CloseIdleConnections()

	fetch := func(u string) error {
		resp, err := client.Get(u)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	// One sequential warm-up pass primes the server's lazily built state
	// and the HTTP connection pool, then the timed closed loop runs: each
	// client fires its next request the moment the previous response lands.
	for _, u := range urls {
		if err := fetch(u); err != nil {
			return fmt.Errorf("bench: serve leg warm-up: %w", err)
		}
	}
	var completed, failed atomic.Int64
	duration := time.Duration(cfg.ServeSeconds * float64(time.Second))
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for i := offset; time.Now().Before(deadline); i++ {
				if err := fetch(urls[i%len(urls)]); err != nil {
					failed.Add(1)
					continue
				}
				completed.Add(1)
			}
		}(c)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	// Scrape the exposition the way an operator would and pull out the
	// windowed percentiles the daemon computed for itself.
	scraped, err := scrapeMetrics(client, base+"/metrics")
	if err != nil {
		return fmt.Errorf("bench: serve leg scrape: %w", err)
	}
	m := Metrics{
		"serve_requests":           float64(completed.Load()),
		"serve_queries_per_sec":    rate(float64(completed.Load()), elapsed),
		"serve_window_p50_seconds": scraped["serve_request_latency_seconds_p50"],
		"serve_window_p99_seconds": scraped["serve_request_latency_seconds_p99"],
	}
	if f := failed.Load(); f > 0 {
		m["serve_errors"] = float64(f)
	}
	m["serve_tail_p99_over_p50"] = ratio(m["serve_window_p99_seconds"], m["serve_window_p50_seconds"])
	res.Benchmarks[key] = m
	for _, nameErr := range sreg.NameErrors() {
		progress("warning: %v", nameErr)
	}
	progress("%-10s serve %2dKB: %d clients x %.1fs -> %.0f q/s, window p50 %s p99 %s",
		ds, budgetKB, clients, cfg.ServeSeconds, m["serve_queries_per_sec"],
		secs(m["serve_window_p50_seconds"]), secs(m["serve_window_p99_seconds"]))
	return nil
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}

// scrapeMetrics fetches an OpenMetrics exposition and returns every
// unlabeled sample as name -> value.
func scrapeMetrics(client *http.Client, u string) (map[string]float64, error) {
	resp, err := client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, found := strings.Cut(line, " ")
		if !found {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, sc.Err()
}
