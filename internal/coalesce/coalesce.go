// Package coalesce turns request-at-a-time traffic into batch-at-a-time
// work. It is a work-conserving admission queue, the group-commit shape: at
// most Slots batches execute at once; a query that finds an execution slot
// free is cut into a batch of its own at once, and a query that finds every
// slot busy queues. The batch goroutine that finishes takes whatever queued
// meanwhile — up to MaxBatch queries, oldest first — before it gives its slot
// up. Batches therefore form exactly when the engine is the bottleneck and
// never when it is idle. Once the number of admitted-but-unanswered queries
// reaches MaxQueue, further callers are shed immediately with ErrOverloaded
// instead of queuing without bound.
//
// There is one queue, and a batch holds whatever was queued: the batcher is
// generic over the request (a vector, or a vector plus what its caller asked
// for), so requests that want different things share a batch and the batch
// function reads each one's ask beside its vector. A sub-queue per distinct
// ask would keep state per value ever seen and never batch the traffic that
// differs; the price of one queue is head-of-line — a cheap query waits for
// the most expensive one in its batch, as queries with short and long radius
// ladders always have.
//
// Slots is how many batches the engine can really run side by side: the
// processors divided by how many of them one batch occupies. A batch function
// that fans a lone query out over every processor gets one slot — more would
// only time-slice the same processors, and with one slot the queue behind it
// absorbs the callers' turnaround jitter — while one that runs a lone query
// on a single worker gets a slot per processor.
//
// MaxDelay is the one exception to "never wait for company", off unless set:
// a lone query that finds a slot free is then held that long before its batch
// is cut. No timer runs otherwise, and none outlives the Do that armed it.
package coalesce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"e2lshos/internal/telemetry"
)

// ErrOverloaded is returned by Do when the admission queue is full; callers
// (or the HTTP layer above them) should treat it as backpressure.
var ErrOverloaded = errors.New("coalesce: admission queue full")

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("coalesce: batcher closed")

// ErrPanic wraps a recovered batch-function panic: every caller of the
// poisoned batch gets an error wrapping this instead of the process dying
// on a batch goroutine (one bad query must not kill the server).
var ErrPanic = errors.New("coalesce: batch function panicked")

// Config tunes the batcher. The zero value selects the defaults.
type Config struct {
	// MaxBatch is the largest batch cut from the queue (default 32).
	MaxBatch int
	// MaxDelay, when positive, holds a query that finds a slot free for
	// company: its batch is cut when MaxBatch queries have gathered, when the
	// hold expires, or when a finishing slot takes it, whichever comes first.
	// Zero (the default) never holds: the batch is cut at once.
	MaxDelay time.Duration
	// Slots bounds the batches executing at once (default GOMAXPROCS, right
	// for a batch function that runs a lone query on one worker).
	Slots int
	// MaxQueue bounds admitted-but-unanswered queries; beyond it Do sheds
	// load with ErrOverloaded (default 4×MaxBatch).
	MaxQueue int
	// ObserveWait, when set, receives every executed query's queue wait —
	// the time between its admission and its batch being cut. Called once
	// per query on the batch goroutine, never under the queue lock.
	ObserveWait func(time.Duration)
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxBatch
	}
	if c.Slots <= 0 {
		c.Slots = runtime.GOMAXPROCS(0)
	}
	return c
}

// Func executes one coalesced batch of whatever the callers queue — a vector,
// or a vector with the knobs its caller asked for. The returned slice must
// align positionally with queries; it runs on the batcher's own context, not
// any single caller's, since the batch outlives individual callers.
type Func[Q, R any] func(ctx context.Context, queries []Q) ([]R, error)

// request is one caller's place in the queue. ctx is the caller's own
// context: a query whose caller is gone by the time its batch is cut never
// reaches the batch function. done is buffered and receives exactly one
// response, so neither the cut nor the batch goroutine ever blocks on a
// caller that gave up waiting. enq stamps admission time so the cut can
// attribute each query's queue wait. hold is the timer of the holds this
// request has started, kept across reuse. A caller that received its response
// hands the request back to the batcher's free list.
type request[Q, R any] struct {
	ctx  context.Context
	q    Q
	enq  time.Time
	done chan response[R]
	hold *time.Timer
}

type response[R any] struct {
	val R
	err error
}

// Batcher coalesces concurrent Do calls into batched Func executions. It is
// one queue under one lock: the bound on admitted-but-unanswered queries, the
// execution slots and the pending queries all live here.
type Batcher[Q, R any] struct {
	run    Func[Q, R]
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	inflight  int              //lsh:guardedby mu — admitted but not yet answered
	executing int              //lsh:guardedby mu — slots held by batch goroutines
	pending   []*request[Q, R] //lsh:guardedby mu — admitted, waiting for an execution slot
	free      []*request[Q, R] //lsh:guardedby mu — answered requests, for reuse
	closed    bool             //lsh:guardedby mu
	shed      uint64           //lsh:guardedby mu
	panics    uint64           //lsh:guardedby mu — batches failed by a recovered panic
	batches   uint64           //lsh:guardedby mu — batches cut
	batched   uint64           //lsh:guardedby mu — queries in those batches

	wg sync.WaitGroup // admitted-but-unanswered queries
}

// New builds a batcher that executes run for every cut batch.
func New[Q, R any](run Func[Q, R], cfg Config) *Batcher[Q, R] {
	ctx, cancel := context.WithCancel(context.Background()) //lsh:ctxok batcher owns its own lifecycle; Close cancels
	return &Batcher[Q, R]{run: run, cfg: cfg.withDefaults(), ctx: ctx, cancel: cancel}
}

// runSlot owns one execution slot: it runs the batch it was started with,
// then keeps cutting and running whatever queued meanwhile, and releases the
// slot only when nothing is pending. Each batch's answers go out after its
// queue slots are released and the next batch is cut, so a caller that has its
// answer never sees its own slot still held.
func (b *Batcher[Q, R]) runSlot(reqs []*request[Q, R]) {
	for len(reqs) > 0 {
		results, err := b.runBatch(reqs)
		b.mu.Lock()
		b.inflight -= len(reqs)
		next := b.cutLocked()
		if len(next) == 0 {
			b.executing--
		}
		b.mu.Unlock()
		b.deliver(reqs, results, err)
		reqs = next
	}
}

// recycle returns an answered request to the free list. The list never
// needs to hold more than the admission bound.
func (b *Batcher[Q, R]) recycle(req *request[Q, R]) {
	var zero Q
	req.ctx, req.q = nil, zero
	b.mu.Lock()
	if len(b.free) < b.cfg.MaxQueue {
		b.free = append(b.free, req)
	}
	b.mu.Unlock()
}

// Do admits one query, waits for the batch it lands in to execute, and
// returns this query's own slot of the batch result. With an execution slot
// free the batch is cut before Do starts waiting — or, under MaxDelay, once
// the hold this query started is over; otherwise the query rides the next
// batch a finishing slot cuts. If the admission queue is full Do returns
// ErrOverloaded without queuing. If ctx is done before the batch delivers, Do
// returns ctx.Err(): a query still queued then is dropped at the cut without
// reaching the batch function, one already cut is computed and its queue slot
// released when its batch completes.
func (b *Batcher[Q, R]) Do(ctx context.Context, q Q) (R, error) {
	var zero R
	// A dead caller must not occupy a queue slot or burn batch work: under
	// overload, timed-out clients retrying are exactly the traffic to drop.
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	b.mu.Lock()
	req, err := b.admitLocked(ctx, q)
	if err != nil {
		b.mu.Unlock()
		return zero, err
	}
	// With a slot free, nothing was pending but what a hold is gathering: the
	// batch is cut now unless this query starts, or joins short of MaxBatch,
	// such a hold.
	var expired <-chan time.Time
	switch held := b.cfg.MaxDelay > 0 && len(b.pending) < b.cfg.MaxBatch; {
	case b.executing >= b.cfg.Slots:
	case !held:
		b.startLocked()
	case len(b.pending) == 1:
		if req.hold == nil {
			req.hold = time.NewTimer(b.cfg.MaxDelay)
		} else {
			req.hold.Reset(b.cfg.MaxDelay)
		}
		expired = req.hold.C
	}
	b.mu.Unlock()

	for {
		select {
		case r := <-req.done:
			// The timer stops before the request can be reused: no timer
			// outlives the Do that armed it.
			if expired != nil {
				req.hold.Stop()
			}
			b.recycle(req)
			return r.val, r.err
		case <-expired:
			expired = nil
			b.endHold(req)
		case <-ctx.Done():
			// A caller that leaves while holding a batch cuts it on the way
			// out, so its company is not left waiting on nobody.
			if expired != nil {
				req.hold.Stop()
				b.endHold(req)
			}
			return zero, ctx.Err()
		}
	}
}

// startLocked cuts the pending queries into a batch and starts it on a free
// execution slot, which the caller has checked for. Nothing starts when every
// pending caller was already gone.
func (b *Batcher[Q, R]) startLocked() {
	if reqs := b.cutLocked(); len(reqs) > 0 {
		b.executing++
		go b.runSlot(reqs)
	}
}

// endHold ends the hold req started: its batch is cut if req still heads the
// queue (no slot or full batch took it meanwhile) and a slot is free; with
// every slot busy, the next one to finish takes it.
func (b *Batcher[Q, R]) endHold(req *request[Q, R]) {
	b.mu.Lock()
	if len(b.pending) > 0 && b.pending[0] == req && b.executing < b.cfg.Slots {
		b.startLocked()
	}
	b.mu.Unlock()
}

// admitLocked claims a queue slot for one query and appends it to the
// pending queue, or refuses with ErrClosed / ErrOverloaded (counting the
// shed).
func (b *Batcher[Q, R]) admitLocked(ctx context.Context, q Q) (*request[Q, R], error) {
	if b.closed {
		return nil, ErrClosed
	}
	if b.inflight >= b.cfg.MaxQueue {
		b.shed++
		return nil, ErrOverloaded
	}
	b.inflight++
	b.wg.Add(1)
	var req *request[Q, R]
	if n := len(b.free); n > 0 {
		req, b.free[n-1] = b.free[n-1], nil
		b.free = b.free[:n-1]
	} else {
		req = &request[Q, R]{done: make(chan response[R], 1)}
	}
	req.ctx, req.q, req.enq = ctx, q, time.Now()
	b.pending = append(b.pending, req)
	return req, nil
}

// cutLocked takes up to MaxBatch queries off the front of the pending
// queue, oldest first. A query whose caller's context is already done is
// answered ctx.Err() here and its queue slot released: it never reaches the
// batch function. The result is empty only when nothing live is pending.
func (b *Batcher[Q, R]) cutLocked() []*request[Q, R] {
	reqs := make([]*request[Q, R], 0, min(len(b.pending), b.cfg.MaxBatch))
	n := 0
	for n < len(b.pending) && len(reqs) < b.cfg.MaxBatch {
		req := b.pending[n]
		n++
		if err := req.ctx.Err(); err != nil {
			req.done <- response[R]{err: err}
			b.inflight--
			b.wg.Done()
			continue
		}
		reqs = append(reqs, req)
	}
	rest := copy(b.pending, b.pending[n:])
	clear(b.pending[rest:])
	b.pending = b.pending[:rest]
	if len(reqs) > 0 {
		b.batches++
		b.batched += uint64(len(reqs))
	}
	return reqs
}

// Shed returns how many calls have been refused with ErrOverloaded.
func (b *Batcher[Q, R]) Shed() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shed
}

// Load returns the admitted-but-unanswered query count and the queue bound —
// the backpressure signal behind Retry-After headers.
func (b *Batcher[Q, R]) Load() (inflight, max int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inflight, b.cfg.MaxQueue
}

// Panics returns how many batches failed on a recovered panic: the batch
// function's own, or one it recovered further down and reported as an error
// wrapping ErrPanic.
func (b *Batcher[Q, R]) Panics() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.panics
}

// Executing returns how many batches are executing right now, at most Slots.
func (b *Batcher[Q, R]) Executing() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.executing
}

// Batches returns how many batches have been cut and how many queries they
// held; their ratio is the mean batch size load has produced.
func (b *Batcher[Q, R]) Batches() (batches, queries uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.batches, b.batched
}

// MaxBatch returns the largest batch a cut takes.
func (b *Batcher[Q, R]) MaxBatch() int { return b.cfg.MaxBatch }

// runBatch executes one batch. Each query's queue wait (admission → cut) is
// measured here: reported to ObserveWait for the full population, and
// attached to the batch context so the engine below can stamp coalesce-wait
// spans onto sampled traces.
func (b *Batcher[Q, R]) runBatch(reqs []*request[Q, R]) ([]R, error) {
	cut := time.Now()
	queries := make([]Q, len(reqs))
	waits := make([]time.Duration, len(reqs))
	for i, req := range reqs {
		queries[i] = req.q
		waits[i] = cut.Sub(req.enq)
		if b.cfg.ObserveWait != nil {
			b.cfg.ObserveWait(waits[i])
		}
	}
	return b.safeRun(telemetry.WithQueueWaits(b.ctx, waits), queries)
}

// deliver fans a finished batch's slots back out to its callers.
func (b *Batcher[Q, R]) deliver(reqs []*request[Q, R], results []R, err error) {
	for i, req := range reqs {
		resp := response[R]{err: err}
		if i < len(results) {
			resp.val = results[i]
		} else if err == nil {
			resp.err = fmt.Errorf("coalesce: batch func returned %d results for %d queries", len(results), len(reqs))
		}
		// The send is the last touch: the caller may recycle req at once.
		req.done <- resp
	}
	b.wg.Add(-len(reqs))
}

// safeRun executes the batch function, converting a panic into an error so
// a poisoned batch fails its callers instead of killing the process. It
// recovers only its own goroutine: a batch function that starts others
// recovers theirs and returns an error wrapping ErrPanic, counted here too.
func (b *Batcher[Q, R]) safeRun(ctx context.Context, queries []Q) (results []R, err error) {
	defer func() {
		if r := recover(); r != nil {
			results, err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
		if errors.Is(err, ErrPanic) {
			b.mu.Lock()
			b.panics++
			b.mu.Unlock()
		}
	}()
	return b.run(ctx, queries)
}

// Close stops admission, ends any hold, and waits for every admitted query —
// executing or still queued behind busy slots — to be answered before
// canceling the batch context. Do calls racing with Close either complete
// normally or return ErrClosed.
func (b *Batcher[Q, R]) Close() {
	b.mu.Lock()
	b.closed = true
	if len(b.pending) > 0 && b.executing < b.cfg.Slots {
		b.startLocked()
	}
	b.mu.Unlock()
	b.wg.Wait()
	b.cancel()
}
