package eval

import "context"

// ctxCanceled is the panic sentinel tickCtx throws when an evaluation's
// context expires; the batch approximate path (approxer.batch) recovers it
// at its boundary. A panic (rather than threading error returns through
// the memoized recursions) keeps the hot recursive signatures — and their
// inlining — untouched.
type ctxCanceled struct{}

// ctxCheckEvery is the work interval between context reads. Work is
// charged in traversal units (document elements visited, synopsis edges
// walked, memo slots filled) rather than call counts: one descendant step
// can scan thousands of positions, so call-count polling would let a heavy
// query run arbitrarily far past its deadline between checks.
const ctxCheckEvery = 1024

// ctxPoll is the cancellation ticker the approximate evaluator embeds; it
// serves both estimate modes, which differ only in the synopsis. ctx is the
// evaluation's cancellation signal; a nil ctx leaves every poll a single
// predictable branch, so batch callers and benchmarks pay nothing and see
// identical floats (polls compute nothing). tick accumulates the work
// charged since the last context read. The ctxpoll analyzer recognizes
// tickCtx and checkCtx by name as poll sites.
type ctxPoll struct {
	ctx  context.Context
	tick uint
}

// tickCtx charges n units of work against the poll budget and reads
// ctx.Err() once it is spent; a canceled context aborts the evaluation by
// panicking with ctxCanceled. The very first charge polls immediately, so
// an already-expired deadline aborts before any walk. A deadline lapsing
// mid-walk only becomes visible through Err() once the runtime delivers
// the timer; on a GOMAXPROCS=1 box a CPU-bound walk delays that until
// async preemption (~10ms), which bounds the overrun there.
func (p *ctxPoll) tickCtx(n int) {
	if p.ctx == nil {
		return
	}
	first := p.tick == 0
	p.tick += uint(n)
	if !first && p.tick < ctxCheckEvery {
		return
	}
	p.tick = 1
	if p.ctx.Err() != nil {
		panic(ctxCanceled{})
	}
}

// checkCtx charges the minimal one-unit tick; recursion and enumeration
// entry points call it so even scan-free query shapes keep polling.
func (p *ctxPoll) checkCtx() {
	p.tickCtx(1)
}
