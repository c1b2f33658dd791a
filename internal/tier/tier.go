// Package tier maintains a queryable TreeSketch over a live document as an
// LSM-style stack of synopses: a compacted immutable base plus small delta
// tiers absorbed from stable.Maintainer insert/delete events. Queries are
// answered over base+delta through an immutable View published with the
// same atomic-swap discipline internal/serve's catalog uses, so estimates
// never block on a build; deterministic background compactions fold the
// delta back into a fresh base when it exceeds a size ratio.
//
// The delta representation is spine-relative: each delta tier is a window
// onto the document, two tiny exact sketches over the root-to-parent label
// spines of its updates (shared by ancestor OID), one with the inserted
// subtrees grafted on and one with the deleted subtrees, and contributes
// est(after) - est(before) to an estimate. The subtraction cancels matches
// the base already counts along the spines while keeping predicate
// activation the changed subtrees cause on their own ancestor chains.
// Matches that pair new elements with off-spine base elements are not
// visible to a delta tier, except that a same-label sibling the parent
// already had is kept as a childless witness; that approximation is
// bounded by the differential test layer and disappears entirely at the
// next compaction, which rebuilds from the maintained count-stable summary
// (exact by Lemma 3.1).
//
// Each update opens a one-unit tier; every sealUnits of them seal into a
// segment, and background merges fold runs of similar-sized segments into
// one, so an estimate runs O(log U) tier evaluations for U units absorbed
// since the last compaction rather than one per seal.
package tier

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// Options configures a Stack.
type Options struct {
	// BudgetBytes is the byte budget handed to TSBuild for the compacted
	// base. Defaults to 8192.
	BudgetBytes int
	// CompactFraction triggers a major compaction when the absorbed delta
	// exceeds this fraction of the base element count. Defaults to 0.10.
	CompactFraction float64
	// MinCompactElems is an absolute floor on the absorbed delta before the
	// ratio test applies, so small documents do not compact on every
	// update. Defaults to 512.
	MinCompactElems int
	// Synchronous runs compactions and segment merges inline in the
	// triggering call instead of a background goroutine. Tests and
	// determinism checks use this; the serving path leaves it false.
	Synchronous bool
	// CompactDelay artificially lengthens a compaction's build phase. It is
	// a test hook (like serve's injected eval delay) for overlapping
	// queries with an in-flight compaction deterministically.
	CompactDelay time.Duration
	// Metrics receives the tier.* telemetry. Nil selects obs.Default.
	Metrics *obs.Registry
}

// sealUnits bounds the unsealed tier-0 unit list: when reached, the units
// are folded into one segment. Every tier costs an estimate two
// evaluations, open units included, and merges keep the segment count
// logarithmic however often seals happen, so seals stay small.
const sealUnits = 8

func (o Options) withDefaults() Options {
	if o.BudgetBytes <= 0 {
		o.BudgetBytes = 8192
	}
	if o.CompactFraction <= 0 {
		o.CompactFraction = 0.10
	}
	if o.MinCompactElems <= 0 {
		o.MinCompactElems = 512
	}
	o.Metrics = obs.Or(o.Metrics)
	return o
}

// Stack is a tiered synopsis over one live document. All updates are
// serialized through an internal mutex; estimates take no lock at all —
// they load the current immutable View from an atomic pointer.
type Stack struct {
	opts Options
	reg  *obs.Registry

	mu        sync.Mutex
	m         *stable.Maintainer
	seq       uint64
	tier0     []*segment // open units, one member each
	segments  []*segment
	base      *sketch.Sketch
	baseElems int
	epoch     uint64
	deltaAbs  int // absorbed elements (unsigned) since the last compaction

	// summary caches Summary's sketch, built when the stack's seq was
	// summarySeq; nil until the first call.
	summary    *sketch.Sketch
	summarySeq uint64

	view        atomic.Pointer[View]
	compacting  atomic.Bool
	compactDone chan struct{} // closed when the in-flight compaction publishes
	mergeDone   chan struct{} // non-nil while a merge is in flight; closed when it ends

	mAbsorbs     *obs.Counter
	mSeals       *obs.Counter
	mMerges      *obs.Counter
	mCompactions *obs.Counter
	mEstimates   *obs.Counter
	gDelta       *obs.Gauge
	gDepth       *obs.Gauge
	wCompactLat  *obs.WindowedHistogram
}

// New builds a Stack over doc: a count-stable Maintainer plus an initial
// compacted base. The document must not be mutated except through the
// Stack.
func New(doc *xmltree.Tree, opts Options) (*Stack, error) {
	if doc == nil || doc.Root == nil {
		return nil, fmt.Errorf("tier: New: empty document")
	}
	opts = opts.withDefaults()
	s := &Stack{
		opts: opts,
		reg:  opts.Metrics,
		m:    stable.NewMaintainer(doc),
	}
	s.mAbsorbs = s.reg.Counter("tier.absorbs")
	s.mSeals = s.reg.Counter("tier.seals")
	s.mMerges = s.reg.Counter("tier.merges")
	s.mCompactions = s.reg.Counter("tier.compactions")
	s.mEstimates = s.reg.Counter("tier.estimates")
	s.gDelta = s.reg.Gauge("tier.delta_elems")
	s.gDepth = s.reg.Gauge("tier.depth")
	s.wCompactLat = s.reg.Windowed("tier.compaction.latency_seconds")

	s.base = CompactSketch(s.m.CanonicalSynopsis(), opts.BudgetBytes, 0, s.reg)
	s.baseElems = doc.Size()
	s.publishLocked() // no concurrency yet; lock not needed but harmless to reuse
	return s, nil
}

// Doc returns the maintained document. Callers must not mutate it.
func (s *Stack) Doc() *xmltree.Tree { return s.m.Doc() }

// View returns the current immutable base+delta view. The returned value is
// never mutated; successive calls may return different views.
func (s *Stack) View() *View { return s.view.Load() }

// Summary returns the count-stable summary of the live document as a
// sketch: the maintainer's canonical synopsis through sketch.FromStable,
// on which evaluation is exact (Section 4.3). It is built under the writer
// lock on the first call after an update moved the stack's sequence
// number, and otherwise served from cache, so a stack that is never asked
// never builds it. The sketch is shared; callers must not mutate it.
func (s *Stack) Summary() *sketch.Sketch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.summary == nil || s.summarySeq != s.seq {
		s.summary, s.summarySeq = sketch.FromStable(s.m.CanonicalSynopsis()), s.seq
	}
	return s.summary
}

// Compacting reports whether a background compaction is in flight.
func (s *Stack) Compacting() bool { return s.compacting.Load() }

// Insert absorbs a subtree insertion: proto is cloned as a new child of the
// element with OID parentOID. Returns the OID of the adopted subtree root.
func (s *Stack) Insert(parentOID int, proto *xmltree.Tree) (int, error) {
	if proto == nil || proto.Root == nil {
		return 0, fmt.Errorf("tier: Insert: empty subtree")
	}
	s.mu.Lock()
	parent := s.m.Node(parentOID)
	if parent == nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("tier: Insert: unknown parent OID %d", parentOID)
	}
	root, err := s.m.InsertSubtree(parent, proto)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.seq++
	run := s.absorbLocked(s.unitLocked(+1, parent, root))
	s.mu.Unlock()
	if run != nil {
		run()
	}
	return root.OID, nil
}

// Delete absorbs a subtree deletion by OID. The document root cannot be
// deleted.
func (s *Stack) Delete(oid int) error {
	s.mu.Lock()
	victim := s.m.Node(oid)
	if victim == nil {
		s.mu.Unlock()
		return fmt.Errorf("tier: Delete: unknown OID %d", oid)
	}
	parent := s.m.Parent(victim)
	if parent == nil {
		s.mu.Unlock()
		return fmt.Errorf("tier: Delete: cannot delete the document root")
	}
	s.seq++
	u := s.unitLocked(-1, parent, victim)
	if err := s.m.DeleteSubtree(victim); err != nil {
		s.seq--
		s.mu.Unlock()
		return err
	}
	run := s.absorbLocked(u)
	s.mu.Unlock()
	if run != nil {
		run()
	}
	return nil
}

// EstimateContext answers q over the current view; see View.EstimateContext.
func (s *Stack) EstimateContext(ctx context.Context, q *query.Query, opts eval.Options) (*eval.Result, float64, Info) {
	s.mEstimates.Inc()
	return s.View().EstimateContext(ctx, q, opts)
}

// CountContext answers q over the current view without materializing the
// base's result synopsis; see View.CountContext.
func (s *Stack) CountContext(ctx context.Context, q *query.Query, opts eval.Options) (eval.CountResult, float64, Info) {
	s.mEstimates.Inc()
	return s.View().CountContext(ctx, q, opts)
}

// Compact folds every delta tier absorbed before the call into the base
// and waits for the publish; a compaction or merge already in flight is
// waited out first (a compaction's snapshot may predate recent absorbs, so
// another round runs). Absorbs issued concurrently with Compact may leave
// fresh tiers behind.
func (s *Stack) Compact() {
	for {
		s.mu.Lock()
		var busy chan struct{}
		switch {
		case s.compacting.Load():
			busy = s.compactDone
		case s.mergeDone != nil:
			busy = s.mergeDone
		}
		if busy != nil {
			s.mu.Unlock()
			<-busy
			continue
		}
		if len(s.segments) == 0 && len(s.tier0) == 0 {
			s.mu.Unlock()
			return
		}
		run := s.startCompactionLocked()
		ch := s.compactDone
		s.mu.Unlock()
		if run != nil {
			run()
		}
		<-ch
	}
}

// absorbLocked records a freshly built unit, reseals/publishes, and decides
// whether to start a compaction or, failing that, a merge. The returned
// thunk is non-nil only in Synchronous mode; the caller must invoke it
// after releasing the lock.
func (s *Stack) absorbLocked(u *segment) func() {
	s.tier0 = append(s.tier0, u)
	s.deltaAbs += u.absElems
	s.mAbsorbs.Inc()
	if len(s.tier0) >= sealUnits {
		s.sealLocked()
	}
	s.publishLocked()
	if !s.compacting.Load() && s.deltaAbs >= s.opts.MinCompactElems &&
		float64(s.deltaAbs) >= s.opts.CompactFraction*float64(s.baseElems) {
		return s.startCompactionLocked()
	}
	return s.startMergeLocked()
}

// sealLocked folds the unsealed tier-0 units into one merged segment.
func (s *Stack) sealLocked() {
	if len(s.tier0) == 0 {
		return
	}
	s.segments = append(s.segments, fold(s.tier0))
	s.tier0 = nil
	s.mSeals.Inc()
}

// fold rebuilds segs, in absorb order, as one segment over their members.
func fold(segs []*segment) *segment {
	var members []member
	for _, seg := range segs {
		members = append(members, seg.members...)
	}
	return newSegment(members)
}

// mergeRunLocked picks the segments the next merge folds into one: the
// newest segment plus each older neighbour that holds at most twice the
// units gathered so far. A unit's segment grows by half or more every
// time it is merged again, so each unit is rebuilt O(log U) times between
// compactions and the segment count stays O(log U). Nil when the run is a
// lone segment.
func (s *Stack) mergeRunLocked() []*segment {
	i := len(s.segments) - 1
	if i < 1 {
		return nil
	}
	units := len(s.segments[i].members)
	for i > 0 && len(s.segments[i-1].members) <= 2*units {
		i--
		units += len(s.segments[i].members)
	}
	if i == len(s.segments)-1 {
		return nil
	}
	return append([]*segment(nil), s.segments[i:]...)
}

// startMergeLocked schedules a merge of the run mergeRunLocked picks,
// unless one is already in flight or a compaction is (the compaction drops
// every segment the merge could fold). Like startCompactionLocked, it
// returns the merge as a thunk in Synchronous mode and otherwise runs it
// on a background goroutine and returns nil.
func (s *Stack) startMergeLocked() func() {
	if s.mergeDone != nil || s.compacting.Load() {
		return nil
	}
	run := s.mergeRunLocked()
	if run == nil {
		return nil
	}
	done := make(chan struct{})
	s.mergeDone = done
	work := func() { s.runMerge(run, done) }
	if s.opts.Synchronous {
		return work
	}
	go work() //lint:nondet merges run off the query path; a merged segment depends only on its inputs' members
	return nil
}

// runMerge rebuilds run as one segment off the lock and installs it, then
// starts the next merge if seals landed meanwhile.
func (s *Stack) runMerge(run []*segment, done chan struct{}) {
	merged := fold(run)
	s.mu.Lock()
	s.installMergeLocked(run, merged)
	s.mergeDone = nil
	close(done)
	next := s.startMergeLocked()
	s.mu.Unlock()
	if next != nil {
		next()
	}
}

// installMergeLocked replaces run with merged and publishes, but only if
// run still sits contiguously in s.segments. Otherwise a compaction
// published meanwhile and dropped the run, whose units the new base
// already counts, so merged is discarded. Reports whether it installed.
func (s *Stack) installMergeLocked(run []*segment, merged *segment) bool {
	at := -1
	for i, seg := range s.segments {
		if seg == run[0] {
			at = i
			break
		}
	}
	if at < 0 || at+len(run) > len(s.segments) {
		return false
	}
	for j, seg := range run {
		if s.segments[at+j] != seg {
			return false
		}
	}
	segs := make([]*segment, 0, len(s.segments)-len(run)+1)
	segs = append(segs, s.segments[:at]...)
	segs = append(segs, merged)
	s.segments = append(segs, s.segments[at+len(run):]...)
	s.publishLocked()
	s.mMerges.Inc()
	return true
}

// startCompactionLocked seals the open tier, snapshots the maintained
// summary, and schedules the rebuild. In Synchronous mode the returned
// thunk runs the compaction; otherwise it runs on a background goroutine
// and nil is returned. Either way compactDone is closed at publish.
func (s *Stack) startCompactionLocked() func() {
	s.sealLocked()
	boundary := s.seq
	canon := s.m.CanonicalSynopsis()
	elems := s.m.Doc().Size()
	s.compacting.Store(true)
	done := make(chan struct{})
	s.compactDone = done
	run := func() {
		defer close(done)
		if next := s.runCompaction(canon, elems, boundary); next != nil {
			next()
		}
	}
	if s.opts.Synchronous {
		return run
	}
	go run() //lint:nondet compaction runs off the query path; its product is the deterministic CompactSketch output
	return nil
}

// runCompaction builds a fresh base from the snapshot and publishes it,
// dropping every delta segment the snapshot covers. Queries keep hitting
// the previous view until the single atomic store below. Segments sealed
// during the build may call for a merge, which no seal could start while
// the compaction was in flight; its thunk is returned in Synchronous mode.
func (s *Stack) runCompaction(canon *stable.Synopsis, elems int, boundary uint64) func() {
	start := time.Now()
	if d := s.opts.CompactDelay; d > 0 {
		time.Sleep(d)
	}
	base := CompactSketch(canon, s.opts.BudgetBytes, 0, s.reg)
	s.mu.Lock()
	keep := s.segments[:0:0]
	for _, seg := range s.segments {
		if seg.maxSeq > boundary {
			keep = append(keep, seg)
		}
	}
	s.segments = keep
	s.base = base
	s.baseElems = elems
	s.epoch++
	s.deltaAbs = 0
	for _, seg := range s.segments {
		s.deltaAbs += seg.absElems
	}
	for _, u := range s.tier0 {
		s.deltaAbs += u.absElems
	}
	s.publishLocked()
	s.compacting.Store(false)
	next := s.startMergeLocked()
	s.mu.Unlock()
	s.mCompactions.Inc()
	s.wCompactLat.Observe(time.Since(start).Seconds())
	return next
}

// publishLocked swaps in a fresh immutable View of the current state.
func (s *Stack) publishLocked() {
	v := &View{
		Base:      s.base,
		BaseElems: s.baseElems,
		Elems:     s.m.Doc().Size(),
		Epoch:     s.epoch,
		Seq:       s.seq,
		tiers:     slices.Concat(s.segments, s.tier0),
		sealed:    len(s.segments),
	}
	s.view.Store(v)
	s.gDelta.Set(int64(s.deltaAbs))
	s.gDepth.Set(int64(1 + len(v.tiers)))
}

// unitLocked snapshots the update numbered s.seq, of subtree src under
// parent, as an open unit (see newUnit).
func (s *Stack) unitLocked(sign int, parent, src *xmltree.Node) *segment {
	var labels []string
	var oids []int
	for cur := parent; cur != nil; cur = s.m.Parent(cur) {
		labels = append(labels, cur.Label)
		oids = append(oids, cur.OID)
	}
	slices.Reverse(labels)
	slices.Reverse(oids)
	return newUnit(s.seq, sign, labels, oids, parent, src)
}
