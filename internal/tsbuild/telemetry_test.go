package tsbuild

import (
	"testing"

	"treesketch/internal/obs"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// TestHeapTelemetry checks that the Stats heap fields are populated and
// agree with the counters published to an injected metrics registry.
func TestHeapTelemetry(t *testing.T) {
	tr := xmltree.MustCompact("r(a(x),a(x,x),a(x,x,x),b(y),b(y,y))")
	st := stable.Build(tr)
	reg := obs.NewRegistry()
	_, stats := Build(st, Options{BudgetBytes: 1, Metrics: reg})

	if stats.Merges == 0 {
		t.Fatal("expected merges on a tight budget")
	}
	if stats.HeapPushes == 0 {
		t.Fatal("HeapPushes = 0, want > 0")
	}
	if stats.MaxHeapSize == 0 {
		t.Fatal("MaxHeapSize = 0, want > 0")
	}
	if got := reg.Counter("tsbuild.heap.pushes").Value(); got != int64(stats.HeapPushes) {
		t.Fatalf("counter tsbuild.heap.pushes = %d, Stats.HeapPushes = %d", got, stats.HeapPushes)
	}
	if got := reg.Counter("tsbuild.heap.evictions").Value(); got != int64(stats.HeapEvictions) {
		t.Fatalf("counter tsbuild.heap.evictions = %d, Stats.HeapEvictions = %d", got, stats.HeapEvictions)
	}
	if got := reg.Gauge("tsbuild.heap.max_size").Value(); got != int64(stats.MaxHeapSize) {
		t.Fatalf("gauge tsbuild.heap.max_size = %d, Stats.MaxHeapSize = %d", got, stats.MaxHeapSize)
	}
	if got := reg.Counter("tsbuild.merges").Value(); got != int64(stats.Merges) {
		t.Fatalf("counter tsbuild.merges = %d, Stats.Merges = %d", got, stats.Merges)
	}
	timers := reg.Snapshot().Timers
	if got := timers["tsbuild.build"].Count; got != 1 {
		t.Fatalf("timer tsbuild.build count = %d, want 1", got)
	}
	if got := timers["tsbuild.create_pool"].Count; got != int64(stats.PoolBuilds) {
		t.Fatalf("timer tsbuild.create_pool count = %d, Stats.PoolBuilds = %d", got, stats.PoolBuilds)
	}
	if got := reg.Histogram("tsbuild.merge.gain_ratio").Count(); got != int64(stats.Merges) {
		t.Fatalf("gain histogram count = %d, Stats.Merges = %d", got, stats.Merges)
	}
}

// TestHeapEvictions forces the bounded candidate pool down to one slot:
// the expensive a-pair is offered first (labels scan alphabetically), then
// displaced by the cheaper b-pair.
func TestHeapEvictions(t *testing.T) {
	tr := xmltree.MustCompact("r(a(x),a(x*9),b(y),b(y,y))")
	st := stable.Build(tr)
	_, stats := Build(st, Options{BudgetBytes: 1, HeapUpper: 1, HeapLower: 1, Metrics: obs.NewRegistry()})
	if stats.HeapEvictions == 0 {
		t.Fatalf("HeapEvictions = 0, want > 0 (stats: %+v)", stats)
	}
}

func TestProgressCallback(t *testing.T) {
	tr := xmltree.MustCompact("r(a(x),a(x,x),a(x,x,x),a(x,x,x,x),b(y),b(y,y))")
	st := stable.Build(tr)
	var events []ProgressEvent
	_, stats := Build(st, Options{
		BudgetBytes:   1,
		ProgressEvery: 1,
		Progress:      func(e ProgressEvent) { events = append(events, e) },
		Metrics:       obs.NewRegistry(),
	})
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if !last.Final {
		t.Fatal("last event not marked Final")
	}
	if last.Merges != stats.Merges {
		t.Fatalf("final event Merges = %d, Stats.Merges = %d", last.Merges, stats.Merges)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Merges < events[i-1].Merges {
			t.Fatalf("Merges not monotone at event %d: %d -> %d", i, events[i-1].Merges, events[i].Merges)
		}
		if events[i].Final && i != len(events)-1 {
			t.Fatalf("non-terminal event %d marked Final", i)
		}
	}
	if last.SizeBytes > events[0].SizeBytes {
		t.Fatalf("size grew: %d -> %d", events[0].SizeBytes, last.SizeBytes)
	}
	if last.BudgetBytes != 1 {
		t.Fatalf("BudgetBytes = %d, want 1", last.BudgetBytes)
	}
	// With ProgressEvery=1 there is at least one event per merge plus the
	// pool-build and final events.
	if len(events) < stats.Merges {
		t.Fatalf("%d events for %d merges", len(events), stats.Merges)
	}
}

// TestProgressNilSafe: a nil Progress callback must not be called (and the
// build must not panic), whatever ProgressEvery is.
func TestProgressNilSafe(t *testing.T) {
	tr := xmltree.MustCompact("r(a(x),a(x,x))")
	st := stable.Build(tr)
	_, stats := Build(st, Options{BudgetBytes: 1, Metrics: obs.NewRegistry()})
	if stats.FinalNodes == 0 {
		t.Fatal("build produced nothing")
	}
}
