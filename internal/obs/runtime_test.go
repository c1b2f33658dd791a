package obs

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRuntimeCollectorSamples(t *testing.T) {
	reg := NewRegistry()
	c := StartRuntimeCollector(reg, 5*time.Millisecond)
	// Force at least one GC cycle while the collector is live, and give the
	// ticker a few periods to fire.
	runtime.GC()
	time.Sleep(30 * time.Millisecond)
	c.Stop()

	snap := reg.Snapshot()
	if g := snap.Gauges["runtime.goroutines"]; g <= 0 {
		t.Errorf("runtime.goroutines = %d, want > 0", g)
	}
	if g := snap.Gauges["runtime.gomaxprocs"]; g != int64(runtime.GOMAXPROCS(0)) {
		t.Errorf("runtime.gomaxprocs = %d, want %d", g, runtime.GOMAXPROCS(0))
	}
	if g := snap.Gauges["runtime.heap.alloc_bytes"]; g <= 0 {
		t.Errorf("runtime.heap.alloc_bytes = %d, want > 0", g)
	}
	if g := snap.Gauges["runtime.mem.sys_bytes"]; g <= 0 {
		t.Errorf("runtime.mem.sys_bytes = %d, want > 0", g)
	}
	if n := snap.Counters["runtime.gc.cycles"]; n < 1 {
		t.Errorf("runtime.gc.cycles = %d, want >= 1 after a forced GC", n)
	}
	if w := snap.Windows["runtime.gc.pause_seconds"]; w.Count < 1 {
		t.Errorf("runtime.gc.pause_seconds count = %d, want >= 1", w.Count)
	}
	if w, ok := snap.Windows["runtime.sched.latency_seconds"]; !ok || w.Count < 1 {
		t.Errorf("runtime.sched.latency_seconds missing or empty (count %d)", w.Count)
	}
	if errs := reg.NameErrors(); len(errs) != 0 {
		t.Errorf("runtime families tripped name validation: %v", errs)
	}
}

func TestRuntimeCollectorOpenMetrics(t *testing.T) {
	reg := NewRegistry()
	c := StartRuntimeCollector(reg, time.Hour) // only the priming + Stop samples
	// Force a GC cycle so the pause window has real observations; the sched
	// window stays empty (the hour ticker never fires), which must suppress
	// its quantile families rather than expose NaN.
	runtime.GC()
	c.Stop()
	var b strings.Builder
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, want := range []string{
		"runtime_goroutines ",
		"runtime_heap_alloc_bytes ",
		"runtime_gc_cycles_total ",
		"runtime_gc_pause_seconds_p99 ",
		"runtime_sched_latency_seconds_window_seconds ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(body, "runtime_sched_latency_seconds_p99") {
		t.Error("empty sched-latency window must omit its p99 family")
	}
	if strings.Contains(body, "NaN") {
		t.Errorf("exposition leaks NaN:\n%s", body)
	}
}

func TestQueueMetrics(t *testing.T) {
	reg := NewRegistry()
	q := NewQueueMetrics(reg, "serve.admission")
	q.Enter()
	q.Enter()
	if d := q.Depth.Value(); d != 2 {
		t.Errorf("depth after two enters = %d, want 2", d)
	}
	q.Exit(3 * time.Millisecond)
	q.Exit(5 * time.Millisecond)
	snap := reg.Snapshot()
	if d := snap.Gauges["serve.admission.queue_depth"]; d != 0 {
		t.Errorf("depth after balanced exits = %d, want 0", d)
	}
	w := snap.Windows["serve.admission.queue_wait_seconds"]
	if w.Count != 2 {
		t.Errorf("wait observations = %d, want 2", w.Count)
	}
	if w.Max < 0.004 || w.Max > 0.006 {
		t.Errorf("wait max = %g, want ~0.005", w.Max)
	}
	if errs := reg.NameErrors(); len(errs) != 0 {
		t.Errorf("queue families tripped name validation: %v", errs)
	}
}

func TestTraceLabels(t *testing.T) {
	var nilTrace *Trace
	nilTrace.SetLabel("dataset", "x") // must not panic
	if got := nilTrace.Snapshot().Labels; got != nil {
		t.Errorf("nil trace labels = %v", got)
	}

	tr := NewTrace("//a//b")
	tr.SetLabel("dataset", "imdb")
	tr.SetLabel("dataset", "xmark") // overwrite wins
	tr.SetLabel("shed", "queue_full")
	snap := tr.Snapshot()
	if snap.Labels["dataset"] != "xmark" || snap.Labels["shed"] != "queue_full" {
		t.Errorf("snapshot labels = %v", snap.Labels)
	}
}
