package serve

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopOverload offers load the server did not agree to: Poisson
// arrivals at 1.5x the closed-loop capacity of a server with one evaluation
// slot. The test synopsis evaluates in microseconds, so a 5 ms service floor
// (injectDelay) makes the run a queueing experiment with a known capacity
// on any machine, while every request still runs the real parse/eval/emit
// path. A healthy admission gate answers some requests, sheds the rest
// fast, and keeps the accepted requests' window p99 inside the deadline.
func TestOpenLoopOverload(t *testing.T) {
	const (
		deadline = 150 * time.Millisecond
		overload = 1.5
		clients  = 8
	)
	s, q := newTestServer(t, Options{Deadline: deadline, MaxInflight: 1})
	s.injectDelay = 5 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * clients}}
	defer client.CloseIdleConnections()
	u := ts.URL + "/estimate?dataset=imdb&q=" + urlQueryEscape(q)
	// fetch returns the status, 0 on a transport error.
	fetch := func() int {
		resp, err := client.Get(u)
		if err != nil {
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Capacity: what closed-loop clients get answered per second.
	var answered atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(250 * time.Millisecond)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if fetch() == http.StatusOK {
					answered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	capacity := float64(answered.Load()) / time.Since(start).Seconds()
	offered := overload * capacity
	if capacity <= 0 || offered <= capacity {
		t.Fatalf("capacity %g/s, offered %g/s: the run must overload", capacity, offered)
	}

	// A seeded Poisson schedule over 0.5 s, replayed without waiting for
	// responses: that is what makes the loop open.
	rng := rand.New(rand.NewSource(1))
	var schedule []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / offered * float64(time.Second))
		if at >= 500*time.Millisecond {
			break
		}
		schedule = append(schedule, at)
	}
	var good, shed, failed atomic.Int64
	start = time.Now()
	for _, at := range schedule {
		time.Sleep(at - time.Since(start))
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch fetch() {
			case http.StatusOK:
				good.Add(1)
			case http.StatusServiceUnavailable:
				shed.Add(1)
			default:
				failed.Add(1)
			}
		}()
	}
	wg.Wait()

	n := float64(len(schedule))
	ratio := float64(shed.Load()) / n
	p99 := s.Registry().Snapshot().Windows["serve.request.latency_seconds"].Quantile(0.99)
	t.Logf("capacity %.0f/s, offered %.0f/s: %d arrivals, %d answered, %d shed, window p99 %.1f ms",
		capacity, offered, len(schedule), good.Load(), shed.Load(), 1e3*p99)
	if good.Load() == 0 {
		t.Error("no request answered under overload")
	}
	if ratio <= 0 || ratio >= 1 {
		t.Errorf("shed ratio = %g, want in (0, 1) at 1.5x overload of one slot", ratio)
	}
	if p99 <= 0 || p99 > deadline.Seconds() {
		t.Errorf("window p99 = %gs, want within (0, %gs]", p99, deadline.Seconds())
	}
	if f := failed.Load(); f > 0 {
		t.Errorf("%d requests failed in transport or with another status", f)
	}
}
