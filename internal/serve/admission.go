package serve

import (
	"context"
	"runtime"
	"time"

	"treesketch/internal/obs"
)

// admissionGate bounds the work the server accepts: at most `inflight`
// requests evaluate concurrently, at most `queue` more wait their turn, and
// everything beyond that is shed immediately with 503 — before any parse or
// eval work, so a saturated server spends its cycles finishing admitted
// requests instead of half-serving everything (the classic congestion
// collapse). A queued request that runs out of deadline budget while waiting
// is shed too: admitting it would only burn an eval slot on an answer the
// client has already given up on.
//
// The gate is two buffered channels used as counting semaphores. sem holds
// the eval slots; queue holds the waiting slots. Acquire order is
// fast-path-first so an idle server never pays the queue bookkeeping.
type admissionGate struct {
	sem   chan struct{} // eval slots; len(sem) = requests evaluating
	queue chan struct{} // wait slots; len(queue) = requests queued

	qm            *obs.QueueMetrics
	mAdmitted     *obs.Counter
	mQueued       *obs.Counter
	mShedFull     *obs.Counter
	mShedDeadline *obs.Counter
}

// newAdmissionGate sizes the gate from Options semantics: inflight 0 means
// 2x GOMAXPROCS (enough to cover stalls without losing the bound), negative
// disables the gate entirely (returns nil); queue 0 means 4x inflight,
// negative means no waiting room (saturation sheds immediately).
func newAdmissionGate(reg *obs.Registry, inflight, queue int) *admissionGate {
	if inflight < 0 {
		return nil
	}
	if inflight == 0 {
		inflight = 2 * runtime.GOMAXPROCS(0)
	}
	if queue == 0 {
		queue = 4 * inflight
	}
	if queue < 0 {
		queue = 0
	}
	return &admissionGate{
		sem:           make(chan struct{}, inflight),
		queue:         make(chan struct{}, queue),
		qm:            obs.NewQueueMetrics(reg, "serve.admission"),
		mAdmitted:     reg.Counter("serve.admission.admitted"),
		mQueued:       reg.Counter("serve.admission.queued"),
		mShedFull:     reg.Counter("serve.admission.shed_queue_full"),
		mShedDeadline: reg.Counter("serve.admission.shed_deadline"),
	}
}

// Shed reasons returned by acquire; they double as error codes in 503
// bodies and as the "shed" trace label.
const (
	shedQueueFull = "shed_queue_full"
	shedDeadline  = "shed_deadline"
)

// acquire tries to win an eval slot, queueing within the request's deadline
// budget if none is free. It returns "" on admission, after which the
// caller owes one release, or the reason the request must be shed. The
// wait, if any, is recorded as a "serve.admission" span on the trace and in
// the queue-wait window.
func (g *admissionGate) acquire(ctx context.Context, tr *obs.Trace) string {
	// Fast path: a free slot means no queue bookkeeping and no clock reads
	// beyond the span the trace keeps anyway.
	select {
	case g.sem <- struct{}{}:
		g.mAdmitted.Inc()
		return ""
	default:
	}

	// Saturated: claim a waiting slot or shed.
	select {
	case g.queue <- struct{}{}:
	default:
		g.mShedFull.Inc()
		return shedQueueFull
	}

	g.mQueued.Inc()
	g.qm.Enter()
	span := tr.StartSpan("serve.admission")
	t0 := time.Now()
	select {
	case g.sem <- struct{}{}:
		<-g.queue
		g.qm.Exit(time.Since(t0))
		span.End()
		g.mAdmitted.Inc()
		return ""
	case <-ctx.Done():
		<-g.queue
		g.qm.Exit(time.Since(t0))
		span.End()
		g.mShedDeadline.Inc()
		return shedDeadline
	}
}

// release frees the eval slot an admitted request holds.
func (g *admissionGate) release() { <-g.sem }

// queueCap reports the gate's waiting-room capacity; zero means saturation
// sheds immediately, which changes what a useful Retry-After hint is.
func (g *admissionGate) queueCap() int { return cap(g.queue) }
