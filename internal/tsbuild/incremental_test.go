package tsbuild

import (
	"testing"

	"treesketch/internal/obs"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// TestStalePopSkipsSupersededEntry forces the regression the generation
// numbers guard against: every registered operation is superseded (removed
// and reinstalled with a different score), leaving the original heap entries
// behind. step must discard those stale copies — which surface first, since
// their priorities are lower — instead of applying them, and still find a
// valid merge.
func TestStalePopSkipsSupersededEntry(t *testing.T) {
	tr := xmltree.MustCompact("r(a(x),a(x,x),a(x,x,x),b(y),b(y,y))")
	st := stable.Build(tr)
	b := newBuilder(st, Options{BudgetBytes: 1}.withDefaults())
	if n := b.createPool(); n < 2 {
		t.Fatalf("createPool = %d ops, want >= 2", n)
	}
	keys := make([]opKey, 0, len(b.ops))
	for k := range b.ops {
		keys = append(keys, k)
	}
	for _, k := range keys {
		o := b.ops[k]
		errd, sized := o.errd, o.sized
		b.removeOp(k)
		b.installOp(k, errd+1, sized)
	}
	if b.stalePops != 0 {
		t.Fatalf("stalePops = %d before any step", b.stalePops)
	}
	if !b.step() {
		t.Fatal("step found no valid merge")
	}
	if b.stalePops == 0 {
		t.Fatal("step applied a merge without discarding any superseded heap entry")
	}
	if err := b.sk.Check(); err != nil {
		t.Fatalf("sketch inconsistent after merge: %v", err)
	}
}

// TestStalePopsAfterEndpointMerge is the end-to-end half of the staleness
// audit: merging a node rewrites the operations that referenced it, but the
// rewritten ops' old heap entries remain behind. Draining the build to the
// label-split graph must pop and discard them (never apply them), and report
// the discards through Stats and the metrics registry.
func TestStalePopsAfterEndpointMerge(t *testing.T) {
	tr := xmltree.MustCompact("r(a(x),a(x,x),a(x,x,x),a(x,x,x,x))")
	st := stable.Build(tr)
	reg := obs.NewRegistry()
	sk, stats := Build(st, Options{BudgetBytes: 1, Metrics: reg})
	if stats.Merges < 2 {
		t.Fatalf("Merges = %d, want >= 2", stats.Merges)
	}
	if stats.StalePops == 0 {
		t.Fatal("StalePops = 0: rewritten ops' old heap entries were never discarded")
	}
	if got := reg.Counter("tsbuild.heap.stale_pops").Value(); got != int64(stats.StalePops) {
		t.Fatalf("counter tsbuild.heap.stale_pops = %d, Stats.StalePops = %d", got, stats.StalePops)
	}
	if err := VerifyAgainstStable(sk, st); err != nil {
		t.Fatal(err)
	}
}

// TestBuildDeterministicAcrossWorkers: equal inputs must produce
// bit-identical synopses no matter how many evaluation workers run, and
// repeated builds must reproduce themselves exactly.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		tr := randomDoc(seed, 6)
		st := stable.Build(tr)
		budget := st.SizeBytes() / 3
		var want uint64
		var wantStats Stats
		for _, workers := range []int{1, 1, 4, 8} {
			sk, stats := Build(st, Options{BudgetBytes: budget, Workers: workers, Metrics: obs.NewRegistry()})
			fp := sk.Fingerprint()
			if want == 0 {
				want, wantStats = fp, stats
				continue
			}
			if fp != want {
				t.Fatalf("seed %d: Workers=%d fingerprint %#x != Workers=1 fingerprint %#x",
					seed, workers, fp, want)
			}
			if stats.Merges != wantStats.Merges || stats.PoolBuilds != wantStats.PoolBuilds {
				t.Fatalf("seed %d: Workers=%d trajectory (merges=%d pools=%d) != Workers=1 (merges=%d pools=%d)",
					seed, workers, stats.Merges, stats.PoolBuilds, wantStats.Merges, wantStats.PoolBuilds)
			}
		}
	}
}

// TestMaxPairEvalsTruncationReported: a pool pass that hits the evaluation
// cap must say so through Stats.PoolTruncated and the tsbuild.pool.truncated
// counter rather than silently dropping candidates.
func TestMaxPairEvalsTruncationReported(t *testing.T) {
	tr := xmltree.MustCompact("r(a(x),a(x,x),a(x,x,x))")
	st := stable.Build(tr)
	reg := obs.NewRegistry()
	_, stats := Build(st, Options{BudgetBytes: 1, MaxPairEvals: 1, Metrics: reg})
	if stats.PoolTruncated == 0 {
		t.Fatalf("PoolTruncated = 0 with MaxPairEvals=1 (stats: %+v)", stats)
	}
	if got := reg.Counter("tsbuild.pool.truncated").Value(); got != int64(stats.PoolTruncated) {
		t.Fatalf("counter tsbuild.pool.truncated = %d, Stats.PoolTruncated = %d", got, stats.PoolTruncated)
	}
}

// wideDoc builds a document with n same-label children whose child counts
// all differ, yielding n distinct count-stable classes and O(n^2) candidate
// pairs — enough pool pressure to cross the Lh refill threshold.
func wideDoc(n int) *xmltree.Tree {
	tr := xmltree.NewTree()
	tr.Root = tr.NewNode("r")
	for i := 1; i <= n; i++ {
		a := tr.NewNode("a")
		for j := 0; j < i; j++ {
			a.Children = append(a.Children, tr.NewNode("x"))
		}
		tr.Root.Children = append(tr.Root.Children, a)
	}
	return tr
}

// TestDefaultRefillRegenerates: the Lh trigger regenerates the pool with
// the paper's full CreatePool pass, visible as PoolRebuilds = PoolBuilds - 1.
func TestDefaultRefillRegenerates(t *testing.T) {
	st := stable.Build(wideDoc(24))
	_, stats := Build(st, Options{
		BudgetBytes: 1, HeapUpper: 400, HeapLower: 50, Metrics: obs.NewRegistry(),
	})
	if stats.PoolBuilds < 2 {
		t.Fatalf("PoolBuilds = %d, want >= 2 (Lh regenerate never fired)", stats.PoolBuilds)
	}
	if stats.PoolRebuilds != stats.PoolBuilds-1 {
		t.Fatalf("PoolRebuilds = %d, want PoolBuilds-1 = %d", stats.PoolRebuilds, stats.PoolBuilds-1)
	}
}
