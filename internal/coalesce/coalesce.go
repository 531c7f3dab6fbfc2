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

// Func executes one coalesced batch. The returned slice must align
// positionally with queries; it runs on the batcher's own context, not any
// single caller's, since the batch outlives individual callers.
type Func[R any] func(ctx context.Context, queries [][]float32) ([]R, error)

// request is one caller's place in the queue. ctx is the caller's own
// context: a query whose caller is gone by the time its batch is cut never
// reaches the batch function. done is buffered and receives exactly one
// response, so neither the cut nor the batch goroutine ever blocks on a
// caller that gave up waiting. enq stamps admission time so the cut can
// attribute each query's queue wait. hold is the timer of the holds this
// request has started, kept across reuse. A caller that received its response
// hands the request back to the admitter's free list.
type request[R any] struct {
	ctx  context.Context
	q    []float32
	enq  time.Time
	done chan response[R]
	hold *time.Timer
}

type response[R any] struct {
	val R
	err error
}

// admitter is the queue state one batcher, or every sub-batcher of a Keyed
// family, shares under one lock: the bound on admitted-but-unanswered
// queries, the execution slots, and which batchers hold pending queries. One
// admitter per family means MaxQueue and the slot bound cover all keys
// jointly, and a freed slot can go to whichever key has waited longest.
type admitter[R any] struct {
	mu        sync.Mutex
	max       int           // admission bound (MaxQueue)
	slots     int           // execution-slot bound (Slots)
	inflight  int           //lsh:guardedby mu — admitted but not yet answered
	executing int           //lsh:guardedby mu — slots held by batch goroutines
	waiting   []*Batcher[R] //lsh:guardedby mu — batchers with pending queries
	free      []*request[R] //lsh:guardedby mu — answered requests, for reuse
	shed      uint64        //lsh:guardedby mu
	panics    uint64        //lsh:guardedby mu — recovered batch-function panics
	batches   uint64        //lsh:guardedby mu — batches cut
	batched   uint64        //lsh:guardedby mu — queries in those batches
}

func newAdmitter[R any](cfg Config) *admitter[R] {
	return &admitter[R]{max: cfg.MaxQueue, slots: cfg.Slots}
}

// nextLocked cuts the next batch: from the batcher whose head query has
// waited longest, so no key starves behind a busier one. It returns nil when
// nothing live is pending.
func (a *admitter[R]) nextLocked() (*Batcher[R], []*request[R]) {
	for len(a.waiting) > 0 {
		oldest := a.waiting[0]
		for _, b := range a.waiting[1:] {
			if b.pending[0].enq.Before(oldest.pending[0].enq) {
				oldest = b
			}
		}
		if reqs := oldest.cutLocked(); len(reqs) > 0 {
			return oldest, reqs
		}
	}
	return nil, nil
}

// runSlot owns one execution slot: it runs the batch it was started with,
// then keeps cutting and running whatever queued meanwhile, and releases
// the slot only when the whole family has nothing pending. Each batch's
// answers go out after its queue slots are released and the next batch is
// cut, so a caller that has its answer never sees its own slot still held.
func (a *admitter[R]) runSlot(b *Batcher[R], reqs []*request[R]) {
	for b != nil {
		results, err := b.runBatch(reqs)
		a.mu.Lock()
		a.inflight -= len(reqs)
		next, nextReqs := a.nextLocked()
		if next == nil {
			a.executing--
		}
		a.mu.Unlock()
		b.deliver(reqs, results, err)
		b, reqs = next, nextReqs
	}
}

// recycle returns an answered request to the free list. The list never
// needs to hold more than the admission bound.
func (a *admitter[R]) recycle(req *request[R]) {
	req.ctx, req.q = nil, nil
	a.mu.Lock()
	if len(a.free) < a.max {
		a.free = append(a.free, req)
	}
	a.mu.Unlock()
}

func (a *admitter[R]) shedCount() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shed
}

func (a *admitter[R]) load() (inflight, max int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight, a.max
}

func (a *admitter[R]) panicCount() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.panics
}

func (a *admitter[R]) executingCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.executing
}

func (a *admitter[R]) batchCounts() (batches, queries uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.batches, a.batched
}

// Batcher coalesces concurrent Do calls into batched Func executions.
type Batcher[R any] struct {
	run    Func[R]
	cfg    Config
	adm    *admitter[R]
	ctx    context.Context
	cancel context.CancelFunc

	// Guarded by adm.mu, the family's one lock, and touched only from
	// functions that hold it.
	pending []*request[R] // admitted, waiting for an execution slot
	closed  bool

	wg sync.WaitGroup // admitted-but-unanswered queries of this batcher
}

// New builds a batcher that executes run for every cut batch.
func New[R any](run Func[R], cfg Config) *Batcher[R] {
	cfg = cfg.withDefaults()
	return newShared(run, cfg, newAdmitter[R](cfg))
}

// newShared builds a batcher on an externally-owned admitter.
func newShared[R any](run Func[R], cfg Config, adm *admitter[R]) *Batcher[R] {
	ctx, cancel := context.WithCancel(context.Background()) //lsh:ctxok batcher owns its own lifecycle; Close cancels
	return &Batcher[R]{run: run, cfg: cfg, adm: adm, ctx: ctx, cancel: cancel}
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
func (b *Batcher[R]) Do(ctx context.Context, q []float32) (R, error) {
	var zero R
	// A dead caller must not occupy a queue slot or burn batch work: under
	// overload, timed-out clients retrying are exactly the traffic to drop.
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	a := b.adm
	a.mu.Lock()
	req, err := b.admitLocked(ctx, q)
	if err != nil {
		a.mu.Unlock()
		return zero, err
	}
	// With a slot free, nothing of this batcher's was pending but what a hold
	// is gathering: the batch is cut now unless this query starts, or joins
	// short of MaxBatch, such a hold.
	var expired <-chan time.Time
	switch held := b.cfg.MaxDelay > 0 && len(b.pending) < b.cfg.MaxBatch; {
	case a.executing >= a.slots:
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
	a.mu.Unlock()

	for {
		select {
		case r := <-req.done:
			// The timer stops before the request can be reused: no timer
			// outlives the Do that armed it.
			if expired != nil {
				req.hold.Stop()
			}
			a.recycle(req)
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

// startLocked cuts this batcher's pending queries into a batch and starts it
// on a free execution slot, which the caller has checked for. Nothing starts
// when every pending caller was already gone.
func (b *Batcher[R]) startLocked() {
	if reqs := b.cutLocked(); len(reqs) > 0 {
		b.adm.executing++
		go b.adm.runSlot(b, reqs)
	}
}

// endHold ends the hold req started: its batch is cut if req still heads the
// queue (no slot or full batch took it meanwhile) and a slot is free; with
// every slot busy, the next one to finish takes it.
func (b *Batcher[R]) endHold(req *request[R]) {
	a := b.adm
	a.mu.Lock()
	if len(b.pending) > 0 && b.pending[0] == req && a.executing < a.slots {
		b.startLocked()
	}
	a.mu.Unlock()
}

// admitLocked claims a queue slot for one query and appends it to the
// pending queue, or refuses with ErrClosed / ErrOverloaded (counting the
// shed).
func (b *Batcher[R]) admitLocked(ctx context.Context, q []float32) (*request[R], error) {
	a := b.adm
	if b.closed {
		return nil, ErrClosed
	}
	if a.inflight >= a.max {
		a.shed++
		return nil, ErrOverloaded
	}
	a.inflight++
	b.wg.Add(1)
	var req *request[R]
	if n := len(a.free); n > 0 {
		req, a.free[n-1] = a.free[n-1], nil
		a.free = a.free[:n-1]
	} else {
		req = &request[R]{done: make(chan response[R], 1)}
	}
	req.ctx, req.q, req.enq = ctx, q, time.Now()
	if b.pending = append(b.pending, req); len(b.pending) == 1 {
		a.waiting = append(a.waiting, b)
	}
	return req, nil
}

// cutLocked takes up to MaxBatch queries off the front of the pending
// queue. A query whose caller's context is already done is answered
// ctx.Err() here and its queue slot released: it never reaches the batch
// function. The result is empty when every pending caller was gone.
func (b *Batcher[R]) cutLocked() []*request[R] {
	a := b.adm
	reqs := make([]*request[R], 0, min(len(b.pending), b.cfg.MaxBatch))
	n := 0
	for n < len(b.pending) && len(reqs) < b.cfg.MaxBatch {
		req := b.pending[n]
		n++
		if err := req.ctx.Err(); err != nil {
			req.done <- response[R]{err: err}
			a.inflight--
			b.wg.Done()
			continue
		}
		reqs = append(reqs, req)
	}
	rest := copy(b.pending, b.pending[n:])
	clear(b.pending[rest:])
	if b.pending = b.pending[:rest]; rest == 0 {
		for i, w := range a.waiting {
			if w == b {
				a.waiting = append(a.waiting[:i], a.waiting[i+1:]...)
				break
			}
		}
	}
	if len(reqs) > 0 {
		a.batches++
		a.batched += uint64(len(reqs))
	}
	return reqs
}

// Shed returns how many calls have been refused with ErrOverloaded (across
// the whole keyed family when the admitter is shared).
func (b *Batcher[R]) Shed() uint64 { return b.adm.shedCount() }

// Load returns the admitted-but-unanswered query count and the queue bound
// (shared across the keyed family when the admitter is shared) — the
// backpressure signal behind Retry-After headers.
func (b *Batcher[R]) Load() (inflight, max int) { return b.adm.load() }

// Panics returns how many batch executions were recovered from panics.
func (b *Batcher[R]) Panics() uint64 { return b.adm.panicCount() }

// Executing returns how many batches are executing right now, at most Slots
// across the family.
func (b *Batcher[R]) Executing() int { return b.adm.executingCount() }

// Batches returns how many batches have been cut and how many queries they
// held; their ratio is the mean batch size load has produced.
func (b *Batcher[R]) Batches() (batches, queries uint64) { return b.adm.batchCounts() }

// runBatch executes one batch. Each query's queue wait (admission → cut) is
// measured here: reported to ObserveWait for the full population, and
// attached to the batch context so the engine below can stamp coalesce-wait
// spans onto sampled traces.
func (b *Batcher[R]) runBatch(reqs []*request[R]) ([]R, error) {
	cut := time.Now()
	queries := make([][]float32, len(reqs))
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
func (b *Batcher[R]) deliver(reqs []*request[R], results []R, err error) {
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
// a poisoned batch fails its callers instead of killing the process. The
// batch goroutine is the blast radius of arbitrary engine code; nothing
// above it recovers.
func (b *Batcher[R]) safeRun(ctx context.Context, queries [][]float32) (results []R, err error) {
	defer func() {
		if r := recover(); r != nil {
			b.adm.mu.Lock()
			b.adm.panics++
			b.adm.mu.Unlock()
			results, err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	return b.run(ctx, queries)
}

// Close stops admission, ends any hold, and waits for every admitted query —
// executing or still queued behind busy slots — to be answered before
// canceling the batch context. Do calls racing with Close either complete
// normally or return ErrClosed.
func (b *Batcher[R]) Close() {
	a := b.adm
	a.mu.Lock()
	b.closed = true
	if len(b.pending) > 0 && a.executing < a.slots {
		b.startLocked()
	}
	a.mu.Unlock()
	b.wg.Wait()
	b.cancel()
}
