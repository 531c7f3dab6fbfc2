// Package ioengine is the shared asynchronous read engine of the storage
// path: a bounded-queue-depth submission layer between the query engines and
// a blockstore backend.
//
// The paper's Table 2 shows that SSD-class devices only reach their rated
// random-read IOPS at high queue depth; issuing one blocking ReadBlock at a
// time leaves the device at queue depth 1. The engine accepts *vectored*
// batches of block addresses — one radius round's table entries, one wave of
// bucket-chain blocks — and drives the backend with up to Depth concurrent
// physical operations, after two traffic-reducing passes:
//
//   - Coalescing: the batch's cache misses are sorted and runs of adjacent
//     addresses merge into single vectored backend calls (one pread on the
//     file backend), bounded by blockstore.MaxCoalesce.
//   - Dedup: duplicates within one batch always share one backend read.
//     While the backend blocks, concurrent requests for the same block —
//     coalescer fan-in and shard fan-out routinely hash different queries
//     to the same buckets — also share one in-flight read, singleflight
//     style, through a dedup table in front of the cache: a joiner never
//     touches the backend and never double-counts a miss. The table exists
//     only while the engine's latest operation blocked (see blockingOp);
//     while it does not, DedupedReads counts in-batch duplicates alone,
//     because a ≈ 0.5 µs page-cache pread is cheaper than a contended map
//     insert and delete under the engine lock.
//
// Submission: a wave's runs are performed by the goroutine that asked for
// them, and helpers — up to Depth−1 — are started only once the backend is
// seen to block. A backend that answers from memory or the page cache pays
// for no goroutine hand-off; a device still sees the wave at full depth.
//
// Cache interaction: when a cache is attached, every miss's fill goes
// through it (Put on completion), and a demand hit is served from it without
// reaching the dedup or submission layers; cache probes run outside the
// engine lock, so hits keep the cache's lock-striped concurrency. Leaders
// complete their reads even if a waiter's context is canceled, so a canceled
// query can never poison a read another query is waiting on.
package ioengine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/telemetry"
)

// Source is the data plane the engine reads from. *blockstore.Store
// satisfies it, keeping address validation on the miss path.
type Source interface {
	ReadBlock(a blockstore.Addr, buf []byte) error
	ReadBlocks(addrs []blockstore.Addr, bufs [][]byte) (int, error)
}

// Options tune engine construction.
type Options struct {
	// Depth is the maximum number of concurrent physical backend operations
	// (the device queue depth the engine sustains). Must be >= 1.
	Depth int
	// Cache, when non-nil, serves demand hits and receives every miss's
	// fill: one Get per demand read, one Put per backend read.
	Cache *blockcache.Cache
	// Retries is the per-read retry budget: how many times a failed physical
	// read of one block is re-attempted when the failure classifies as a
	// transient storage fault (EIO, short read, checksum mismatch — anything
	// except context cancellation and invalid addresses). 0 disables
	// retries, quarantine included.
	Retries int
	// RetryBackoff is the base delay before the first retry; it doubles per
	// attempt, capped at 8x, with ±50% jitter so concurrent queries hitting
	// the same sick device don't retry in lockstep. Defaults to 200µs. The
	// engine's queue-depth slot is released while backing off, so a
	// retrying read never stalls healthy traffic.
	RetryBackoff time.Duration
	// QuarantineLimit bounds the quarantine set: addresses that exhausted
	// their retry budget fail fast on later reads instead of re-paying the
	// full backoff ladder, until evicted FIFO by newer entrants. Defaults
	// to 1024; only meaningful with Retries > 0.
	QuarantineLimit int
}

// BatchStats reports what one Read or ReadBatch call did, in the per-query
// units the searchers fold into their Stats.
type BatchStats struct {
	// CacheHits and CacheMisses count cache outcomes (zero without a cache).
	// A deduped read counts as a hit: it never reached the backend on this
	// caller's behalf.
	CacheHits   int
	CacheMisses int
	// DedupedReads counts reads satisfied by joining another caller's
	// in-flight backend read.
	DedupedReads int
	// CoalescedReads counts backend reads saved by merging runs of adjacent
	// addresses into single physical operations.
	CoalescedReads int
	// PhysicalReads counts the physical backend operations this call issued.
	PhysicalReads int
}

// add folds o into s.
func (s *BatchStats) add(o BatchStats) {
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.DedupedReads += o.DedupedReads
	s.CoalescedReads += o.CoalescedReads
	s.PhysicalReads += o.PhysicalReads
}

// Counters are the engine's cumulative totals, for the serving layer's
// /metrics.
type Counters struct {
	// Reads is the number of block reads requested (demand traffic;
	// prefetch waves count only in PhysicalReads/CoalescedReads).
	Reads int64
	// PhysicalReads is the number of physical backend operations issued
	// (retry attempts included).
	PhysicalReads int64
	// CoalescedReads is the reads absorbed by adjacent-run merging.
	CoalescedReads int64
	// DedupedReads is the demand reads absorbed by singleflight sharing.
	DedupedReads int64
	// RetriedReads is the number of retry attempts issued after transient
	// read failures.
	RetriedReads int64
	// FaultedReads is the number of block reads that still failed after
	// exhausting the retry budget (or that failed with retries disabled).
	FaultedReads int64
	// QuarantineHits is the reads failed fast against the quarantine set
	// without touching the backend.
	QuarantineHits int64
	// Quarantined is the current size of the quarantine set (a gauge).
	Quarantined int64
}

// Add folds o into c, which is how a sharded index totals its shards'
// engines (Quarantined sums too: the shards' stores are disjoint).
func (c *Counters) Add(o Counters) {
	c.Reads += o.Reads
	c.PhysicalReads += o.PhysicalReads
	c.CoalescedReads += o.CoalescedReads
	c.DedupedReads += o.DedupedReads
	c.RetriedReads += o.RetriedReads
	c.FaultedReads += o.FaultedReads
	c.QuarantineHits += o.QuarantineHits
	c.Quarantined += o.Quarantined
}

// flight is one in-flight backend read other callers may join. It carries no
// payload: a joiner registers its own destination buffer, and the leader
// copies the block into every registered buffer when it publishes. Flights
// live in their leader's waveScratch; the dedup table points at them only
// between registration and publish.
type flight struct {
	waiters *waiter // guarded by Engine.mu
}

// waiter is one destination buffer registered on a flight. It lives in the
// joining call's waveScratch; every field is guarded by Engine.mu until the
// leader clears fl, after which the joiner owns it again.
type waiter struct {
	buf  []byte
	err  error
	fl   *flight // nil once the leader has filled buf (or set err)
	ws   *waveScratch
	next *waiter
}

// Engine is the shared submission layer. All methods are safe for
// concurrent use; one engine is meant to be shared by every searcher (and
// their readahead) of an index, so the depth bound and the dedup table span
// the whole serving process.
type Engine struct {
	src   Source
	cache *blockcache.Cache
	// The depth bound: slots counts operations holding a slot or waiting for
	// one. Under depth a slot costs two atomic adds and no lock; over it an
	// operation waits on handoff, where the next one to finish passes its on.
	depth   int64
	slots   atomic.Int64
	handoff chan struct{} // buffered like a semaphore of depth slots
	retries int
	backoff time.Duration
	epoch   time.Time // what operate's clock readings are offsets from
	quar    quarantine

	mu       sync.Mutex
	inflight map[blockstore.Addr]*flight //lsh:guardedby mu

	// scratch pools the per-call arenas (*waveScratch), so neither a fully
	// cache-resident wave nor an all-miss one allocates in steady state.
	scratch sync.Pool

	// fast is whether the latest backend operation returned within
	// blockingOp. While it holds, a wave runs on its calling goroutine alone
	// and bypasses the dedup table; the zero value has a new engine fan its
	// first wave out and share its reads.
	fast atomic.Bool

	reads     atomic.Int64
	physical  atomic.Int64
	coalesced atomic.Int64
	deduped   atomic.Int64
	retried   atomic.Int64
	faulted   atomic.Int64
	quarHits  atomic.Int64

	// lat, when set, receives the submit→complete latency of every physical
	// backend operation (semaphore wait + device time, the paper's
	// queue-depth-dependent quantity). Swapped atomically so telemetry can
	// be enabled on a live engine; nil costs one atomic load per op.
	lat atomic.Pointer[telemetry.Histogram]
}

// SetLatencyHist attaches (or, with nil, detaches) the histogram that every
// physical operation's submit→complete latency is observed into.
func (e *Engine) SetLatencyHist(h *telemetry.Histogram) { e.lat.Store(h) }

// New creates an engine over src.
func New(src Source, opts Options) (*Engine, error) {
	if src == nil {
		return nil, fmt.Errorf("ioengine: nil source")
	}
	if opts.Depth < 1 {
		return nil, fmt.Errorf("ioengine: queue depth must be at least 1, got %d", opts.Depth)
	}
	if opts.Retries < 0 {
		return nil, fmt.Errorf("ioengine: negative retry budget %d", opts.Retries)
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 200 * time.Microsecond
	}
	quarLimit := opts.QuarantineLimit
	if quarLimit <= 0 {
		quarLimit = 1024
	}
	return &Engine{
		src:      src,
		cache:    opts.Cache,
		depth:    int64(opts.Depth),
		handoff:  make(chan struct{}, opts.Depth),
		retries:  opts.Retries,
		backoff:  backoff,
		epoch:    time.Now(),
		quar:     quarantine{limit: quarLimit},
		inflight: make(map[blockstore.Addr]*flight),
	}, nil
}

// Depth returns the queue depth the engine was built with.
func (e *Engine) Depth() int { return int(e.depth) }

// Cache returns the attached cache (nil when uncached).
func (e *Engine) Cache() *blockcache.Cache { return e.cache }

// Counters returns the cumulative engine totals.
func (e *Engine) Counters() Counters {
	return Counters{
		Reads:          e.reads.Load(),
		PhysicalReads:  e.physical.Load(),
		CoalescedReads: e.coalesced.Load(),
		DedupedReads:   e.deduped.Load(),
		RetriedReads:   e.retried.Load(),
		FaultedReads:   e.faulted.Load(),
		QuarantineHits: e.quarHits.Load(),
		Quarantined:    int64(e.quar.len()),
	}
}

// Read fetches one block into buf (len >= BlockSize): dedup table (only
// while the backend blocks; see readWave), then cache (probed outside the
// engine lock), then backend. ctx only bounds waiting on another caller's
// flight; a read this call leads always completes, so sharers are never
// poisoned.
//
//lsh:hotpath
func (e *Engine) Read(ctx context.Context, a blockstore.Addr, buf []byte, st *BatchStats) error {
	e.reads.Add(1)
	shared := !e.fast.Load()
	var fl *flight
	if shared {
		e.mu.Lock()
		fl = e.inflight[a]
	}
	if fl == nil && e.cache != nil {
		if shared {
			e.mu.Unlock()
		}
		if e.cache.Get(a, buf) {
			if st != nil {
				st.CacheHits++
			}
			return nil
		}
		if shared {
			// Miss: re-check the dedup table before becoming the leader —
			// another caller may have registered while we probed the cache.
			e.mu.Lock()
			fl = e.inflight[a]
		}
	}
	// Off the hit path. While shared, the arena is taken with the lock held:
	// finding the flight and enlisting on it (or registering one) must be
	// one step.
	ws := e.getScratch(1)
	defer e.putScratch(ws)
	if fl != nil {
		ws.enlist(fl, buf)
		e.mu.Unlock()
		e.deduped.Add(1)
		if st != nil {
			st.DedupedReads++
			if e.cache != nil {
				st.CacheHits++
			}
		}
		return e.await(ctx, ws)
	}
	ws.shared = shared
	if lead := ws.lead(a, buf); shared {
		e.inflight[a] = lead
		e.mu.Unlock()
	}
	if st != nil {
		if e.cache != nil {
			st.CacheMisses++
		}
		st.PhysicalReads++
	}
	err := e.readPhysical(ws, 0)
	e.publish(ws, 0, 1, err)
	return err
}

// retryable reports whether err is a transient storage fault worth
// retrying: EIO, short reads and checksum mismatches all qualify (the copy
// on the wire may be rotten while the device's copy is fine, and transient
// device errors clear on re-read). Context cancellation is the caller
// giving up, and blockstore.ErrInvalidAddr is a program bug — neither is
// retried.
func retryable(err error) bool {
	return err != nil &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, blockstore.ErrInvalidAddr)
}

// blockingOp is the backend time above which an operation counts as having
// blocked: a few goroutine hand-offs. Under it (a page-cache pread, a memory
// slab) handing the next run to another goroutine costs more than performing
// it; over it (any real device) the wave's runs are worth overlapping. A
// variable only so that tests can pin which side of it an operation falls.
var blockingOp = 10 * time.Microsecond

// operate performs one physical backend operation — block k of ws alone, or
// the run of blocks [k, hi) — under the engine's depth bound, and remembers
// whether the backend blocked. Times are offsets from the engine's epoch
// (time.Since reads the monotonic clock only, half the price of time.Now).
// The latency histogram observes submit→done, depth-slot wait included; the
// blocking test looks at the backend alone, so fanned-out waves contending
// for slots over a fast backend cannot keep the engine fanning out.
//
//lsh:hotpath
func (e *Engine) operate(ws *waveScratch, k, hi int) (err error) {
	lat := e.lat.Load()
	var submitted time.Duration
	if lat != nil {
		submitted = time.Since(e.epoch)
	}
	if e.slots.Add(1) > e.depth {
		<-e.handoff // every slot is held: take the next one released
	}
	started := time.Since(e.epoch)
	if hi-k == 1 {
		// Not through ReadBlocks: a run of one has nothing to coalesce.
		err = e.src.ReadBlock(ws.addrs[k], ws.bufs[k])
	} else {
		_, err = e.src.ReadBlocks(ws.addrs[k:hi], ws.bufs[k:hi])
	}
	done := time.Since(e.epoch)
	if e.slots.Add(-1) >= e.depth {
		e.handoff <- struct{}{} // an operation is waiting: hand it this slot
	}
	if fast := done-started <= blockingOp; fast != e.fast.Load() {
		e.fast.Store(fast)
	}
	if lat != nil {
		lat.Observe(done - submitted)
	}
	e.physical.Add(1)
	return err
}

// readPhysical is the fault-tolerant read of ws's block k that every leader
// path funnels through: quarantine fast-fail, then up to 1+Retries attempts with
// capped exponential backoff. The depth slot is held per attempt, never
// across a backoff sleep. An address that exhausts its budget is
// quarantined so later queries fail it fast instead of re-paying the
// ladder.
func (e *Engine) readPhysical(ws *waveScratch, k int) error {
	a := ws.addrs[k]
	if qerr := e.quar.check(a); qerr != nil {
		e.quarHits.Add(1)
		return qerr
	}
	err := e.operate(ws, k, k+1)
	for attempt := 0; attempt < e.retries && retryable(err); attempt++ {
		e.retried.Add(1)
		e.sleepBackoff(attempt)
		err = e.operate(ws, k, k+1)
	}
	if retryable(err) {
		e.faulted.Add(1)
		if e.retries > 0 {
			e.quar.add(a, err)
		}
	}
	return err
}

// sleepBackoff waits before retry attempt (0-based), doubling from the base
// and capping at 8x, jittered ±50% so retry storms decorrelate.
func (e *Engine) sleepBackoff(attempt int) {
	d := e.backoff << min(attempt, 3)
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	time.Sleep(d)
}

// enlist registers buf on fl as one more destination of its block. The
// caller holds the engine lock and sized ws.waiters beforehand: fl points
// into it, so it must not regrow.
//
//lsh:hotpath
func (ws *waveScratch) enlist(fl *flight, buf []byte) {
	ws.waiters = append(ws.waiters, waiter{buf: buf, fl: fl, ws: ws, next: fl.waiters})
	fl.waiters = &ws.waiters[len(ws.waiters)-1]
	ws.pending++
}

// lead appends a read this call will perform itself and returns its flight
// for the dedup table. The caller sized ws.flights beforehand, like enlist.
//
//lsh:hotpath
func (ws *waveScratch) lead(a blockstore.Addr, buf []byte) *flight {
	ws.addrs = append(ws.addrs, a)
	ws.bufs = append(ws.bufs, buf)
	ws.flights = append(ws.flights, flight{})
	return &ws.flights[len(ws.flights)-1]
}

// await blocks until every buffer ws enlisted has been filled by its leader,
// and returns the first error among them. When ctx ends first, the buffers
// still registered are withdrawn under the engine lock — the leader copies
// under the same lock, so once await returns nothing writes to the caller's
// buffers again — and the flights themselves carry on for their other
// waiters. A wake-up left over from an earlier call costs one more pass.
func (e *Engine) await(ctx context.Context, ws *waveScratch) error {
	for {
		e.mu.Lock()
		pending := ws.pending
		e.mu.Unlock()
		if pending == 0 {
			break
		}
		select {
		case <-ws.wake:
		case <-ctx.Done():
			e.mu.Lock()
			for i := range ws.waiters {
				w := &ws.waiters[i]
				if w.fl == nil {
					continue // filled already
				}
				p := &w.fl.waiters
				for *p != w {
					p = &(*p).next
				}
				*p = w.next
			}
			ws.pending = 0
			e.mu.Unlock()
			return ctx.Err()
		}
	}
	for i := range ws.waiters {
		if err := ws.waiters[i].err; err != nil {
			return err
		}
	}
	return nil
}

// publish completes the flights of ws's reads [lo, hi), which all ended
// with err: fill the cache, then under the engine lock retire each dedup
// entry and copy the block (or the error) into every buffer registered on
// it, waking the calls whose last buffer that was. The cache fill lands
// before the dedup entry is removed, so a request arriving in between finds
// the block somewhere. Quiet fills count as prefetched (into ws.h) instead
// of demand traffic. A call that registered nothing in the table has nothing
// to retire and no one to copy to, and stops after the fill.
//
//lsh:hotpath
func (e *Engine) publish(ws *waveScratch, lo, hi int, err error) {
	if err == nil && e.cache != nil {
		for k := lo; k < hi; k++ {
			if ws.quiet {
				e.cache.PutPrefetched(ws.addrs[k], ws.bufs[k])
				ws.h.Add(1)
			} else {
				e.cache.Put(ws.addrs[k], ws.bufs[k])
			}
		}
	}
	if !ws.shared {
		return
	}
	e.mu.Lock()
	for k := lo; k < hi; k++ {
		delete(e.inflight, ws.addrs[k])
		fl := &ws.flights[k]
		for w := fl.waiters; w != nil; w = w.next {
			if err == nil {
				copy(w.buf[:blockstore.BlockSize], ws.bufs[k][:blockstore.BlockSize])
			}
			w.err, w.fl = err, nil
			if w.ws.pending--; w.ws.pending == 0 {
				select {
				case w.ws.wake <- struct{}{}:
				default: // a wake-up is already waiting there
				}
			}
		}
		fl.waiters = nil
	}
	e.mu.Unlock()
}

// ReadBatch fetches addrs[i] into bufs[i] for every i, as one vectored
// round: in-flight joins and cache hits are peeled off, the remaining misses
// are sorted, coalesced into adjacent runs and submitted with up to Depth
// physical operations in flight. Duplicate addresses within the batch share
// one read. The call returns when every block is resolved; like Read, reads
// this call leads run to completion regardless of ctx, which only bounds
// waiting on other callers' flights.
func (e *Engine) ReadBatch(ctx context.Context, addrs []blockstore.Addr, bufs [][]byte, st *BatchStats) error {
	if len(addrs) != len(bufs) {
		return fmt.Errorf("ioengine: %d addresses but %d buffers", len(addrs), len(bufs))
	}
	if len(addrs) == 0 {
		return nil
	}
	e.reads.Add(int64(len(addrs)))
	return e.readWave(ctx, addrs, bufs, st, false, nil)
}

// miss is one position of a wave that neither joined a flight nor hit the
// cache.
type miss struct {
	addr blockstore.Addr
	pos  int
}

// run is one coalesced submission: the wave's reads [lo, hi), whose
// addresses are adjacent.
type run struct{ lo, hi int }

// walkState is one live readahead walk of a Prefetch call.
type walkState struct {
	w    blockcache.Walk
	addr blockstore.Addr
	step int
	buf  []byte
}

// waveScratch is the pooled arena of one Read, readWave or Prefetch call, so
// that none of them allocates in steady state — an all-miss wave included.
type waveScratch struct {
	misses []miss // positions not joined in pass 1, then not served by the cache

	// The reads this call leads, in address order: reads [lo, hi) of a run
	// are one backend call on addrs[lo:hi], bufs[lo:hi]. The dedup table
	// points into flights and other calls' flights point into waiters, so
	// both are sized before the first registration and never regrown.
	// (Prefetch, which leads nothing itself, keeps the wave it is about to
	// submit in addrs and bufs.)
	addrs   []blockstore.Addr
	bufs    [][]byte
	flights []flight
	runs    []run
	waiters []waiter

	pending int           // waiters not yet filled; guarded by Engine.mu
	wake    chan struct{} // capacity 1: a leader filled the last pending waiter

	// Submission state, shared with the helpers of a fanned-out wave.
	shared bool // this call's flights are in the dedup table
	quiet  bool
	h      *blockcache.Handle
	cursor atomic.Int32 // next unclaimed run
	fanned bool         // helpers were started; set before the first of them
	wg     sync.WaitGroup
	errMu  sync.Mutex
	err    error //lsh:guardedby errMu — the first error any run ended with

	// Prefetch's walks and their buffers, one block of slab each.
	walks []walkState
	slab  []byte
}

// getScratch returns an arena with room to enlist joins buffers.
//
//lsh:hotpath
func (e *Engine) getScratch(joins int) *waveScratch {
	ws, ok := e.scratch.Get().(*waveScratch)
	if !ok {
		//lsh:allocok cold pool miss: one arena per concurrent call, then reused
		ws = &waveScratch{wake: make(chan struct{}, 1)}
	}
	if cap(ws.waiters) < joins {
		//lsh:allocok growth to the largest wave seen, then reused
		ws.waiters = make([]waiter, 0, joins)
	}
	return ws
}

// putScratch empties ws, dropping its references to caller buffers and walk
// closures, and returns it to the pool. Every flight it led is published and
// every buffer it enlisted is filled or withdrawn by now, so nothing points
// into it.
//
//lsh:hotpath
func (e *Engine) putScratch(ws *waveScratch) {
	clear(ws.bufs)
	clear(ws.waiters)
	clear(ws.walks)
	ws.misses, ws.addrs, ws.bufs = ws.misses[:0], ws.addrs[:0], ws.bufs[:0]
	ws.flights, ws.runs, ws.waiters = ws.flights[:0], ws.runs[:0], ws.waiters[:0]
	ws.walks = ws.walks[:0]
	ws.shared, ws.quiet, ws.h = false, false, nil
	e.scratch.Put(ws)
}

// readWave is the one implementation behind ReadBatch (quiet=false, demand
// accounting into st) and the prefetcher's waves (quiet=true: cache probes
// through PeekQuiet so demand Hits/Misses stay pure, fills through
// PutPrefetched into h, no per-call stats). It classifies every position —
// dedup join, cache hit, or leader miss — probing the cache outside the
// engine lock, then submits the misses as coalesced runs.
//
// The dedup table steps (passes 1 and 3, and publish's retirement) run only
// while the engine's latest operation blocked (see the package comment); a
// wave over a fast backend takes no lock, and its in-wave duplicates,
// adjacent once sorted, are copied from their leader's buffer after the read.
//
//lsh:hotpath
func (e *Engine) readWave(ctx context.Context, addrs []blockstore.Addr, bufs [][]byte, st *BatchStats, quiet bool, h *blockcache.Handle) error {
	ws := e.getScratch(len(addrs))
	defer e.putScratch(ws)
	ws.shared, ws.quiet, ws.h = !e.fast.Load(), quiet, h
	var bst BatchStats

	// Pass 1, under the lock: enlist on reads already in flight. Everything
	// else is unknown until the cache is probed.
	misses := ws.misses
	if ws.shared {
		e.mu.Lock()
		for i, a := range addrs {
			if fl := e.inflight[a]; fl != nil {
				ws.enlist(fl, bufs[i])
				continue
			}
			misses = append(misses, miss{a, i})
		}
		e.mu.Unlock()
	} else {
		for i, a := range addrs {
			misses = append(misses, miss{a, i})
		}
	}

	// Pass 2, lock-free: cache probes (the cache has its own lock stripes)
	// drop the hits; what is left goes in address order, the order it is
	// read in.
	if e.cache != nil {
		unknown := misses
		misses = misses[:0]
		for _, m := range unknown {
			if e.cacheProbe(m.addr, bufs[m.pos], quiet) {
				if !quiet {
					bst.CacheHits++
				}
				continue
			}
			misses = append(misses, m)
		}
	}
	ws.misses = misses
	slices.SortFunc(misses, func(x, y miss) int { return cmp.Compare(x.addr, y.addr) })
	if cap(ws.flights) < len(misses) {
		//lsh:allocok growth to the largest wave seen, then reused
		ws.flights = make([]flight, 0, len(misses))
	}

	// Pass 3, under the lock: re-check the dedup table (a leader may have
	// registered while we probed; a duplicate within the batch finds the
	// flight its first occurrence just registered), and register this
	// call's flights. Without the table, a duplicate is just counted.
	dups := 0
	if ws.shared && len(misses) > 0 {
		e.mu.Lock()
		for _, m := range misses {
			if fl := e.inflight[m.addr]; fl != nil {
				ws.enlist(fl, bufs[m.pos])
				continue
			}
			e.inflight[m.addr] = ws.lead(m.addr, bufs[m.pos])
		}
		e.mu.Unlock()
	} else {
		for j, m := range misses {
			if j > 0 && m.addr == misses[j-1].addr {
				dups++
				continue
			}
			ws.lead(m.addr, bufs[m.pos])
		}
	}
	if joins := len(ws.waiters) + dups; joins > 0 && !quiet {
		bst.DedupedReads += joins
		if e.cache != nil {
			bst.CacheHits += joins
		}
		e.deduped.Add(int64(joins))
	}

	var firstErr error
	if leads := len(ws.addrs); leads > 0 {
		if !quiet && e.cache != nil {
			bst.CacheMisses += leads
		}
		// Runs of adjacent addresses, by the backends' own rule: a submission
		// unit is exactly one physical operation.
		for i := 0; i < leads; i = ws.runs[len(ws.runs)-1].hi {
			ws.runs = append(ws.runs, run{i, blockstore.NextRun(ws.addrs, i)})
		}
		bst.CoalescedReads += leads - len(ws.runs)
		bst.PhysicalReads += len(ws.runs)
		e.coalesced.Add(int64(leads - len(ws.runs)))
		firstErr = e.submit(ws)
	}
	if dups > 0 {
		var lead []byte
		for j, m := range misses {
			if j == 0 || m.addr != misses[j-1].addr {
				lead = bufs[m.pos]
				continue
			}
			copy(bufs[m.pos][:blockstore.BlockSize], lead[:blockstore.BlockSize])
		}
	}

	// Resolve joins last: our own flights are done, foreign flights may
	// still be in progress. Only here does ctx apply.
	if len(ws.waiters) > 0 {
		if err := e.await(ctx, ws); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if st != nil {
		st.add(bst)
	}
	return firstErr
}

// cacheProbe checks the cache on the demand (counted) or quiet path.
// In-batch duplicates that both hit simply copy twice.
//
//lsh:hotpath
func (e *Engine) cacheProbe(a blockstore.Addr, buf []byte, quiet bool) bool {
	if quiet {
		return e.cache.PeekQuiet(a, buf)
	}
	return e.cache.Get(a, buf)
}

// submit performs the wave's runs and publishes every flight. The calling
// goroutine claims runs off a shared cursor and performs them itself; while
// the backend answers without blocking (see blockingOp) that is the whole
// submission. Once an operation is seen to block — or from the first run,
// when the engine's latest operation did — up to Depth−1 helpers are
// started on the same cursor, so a device still sees the wave at the
// engine's queue depth.
//
//lsh:hotpath
func (e *Engine) submit(ws *waveScratch) error {
	ws.cursor.Store(0)
	e.work(ws)
	if ws.fanned {
		ws.wg.Wait()
		ws.fanned = false
	}
	ws.errMu.Lock()
	err := ws.err
	ws.err = nil
	ws.errMu.Unlock()
	return err
}

// work performs runs off the wave's cursor until none are left. Only the
// calling goroutine can find the wave not fanned out yet.
//
//lsh:hotpath
func (e *Engine) work(ws *waveScratch) {
	for {
		if !ws.fanned && !e.fast.Load() {
			// One run stays with this goroutine; helpers take the rest.
			if n := min(e.Depth(), len(ws.runs)-int(ws.cursor.Load())) - 1; n > 0 {
				ws.fanned = true
				ws.wg.Add(n)
				for ; n > 0; n-- {
					//lsh:allocok blocking backend only: a goroutine per overlapped operation
					go func() {
						defer ws.wg.Done()
						e.work(ws)
					}()
				}
			}
		}
		i := int(ws.cursor.Add(1)) - 1
		if i >= len(ws.runs) {
			return
		}
		if err := e.submitRun(ws, ws.runs[i]); err != nil {
			ws.errMu.Lock()
			if ws.err == nil {
				ws.err = err
			}
			ws.errMu.Unlock()
		}
	}
}

// submitRun performs one coalesced physical operation and publishes its
// flights. A failed vectored read over a retry-enabled engine degrades to
// per-block salvage — each block gets its own retry ladder — so one bad
// block cannot poison its run-mates; runs containing a quarantined address
// skip the doomed vectored attempt and go straight to salvage.
//
//lsh:hotpath
func (e *Engine) submitRun(ws *waveScratch, r run) error {
	if !e.quar.containsAny(ws.addrs[r.lo:r.hi]) {
		err := e.operate(ws, r.lo, r.hi)
		if err == nil || e.retries == 0 || !retryable(err) {
			if err != nil && retryable(err) {
				e.faulted.Add(1)
			}
			e.publish(ws, r.lo, r.hi, err)
			return err
		}
	}
	var firstErr error
	for k := r.lo; k < r.hi; k++ {
		berr := e.readPhysical(ws, k)
		e.publish(ws, k, k+1, berr)
		if berr != nil && firstErr == nil {
			firstErr = berr
		}
	}
	return firstErr
}

// Prefetch starts walking every walk as vectored waves and returns
// immediately: per wave, the live walks' current blocks are fetched as one
// quiet read wave (PeekQuiet probes, prefetched-counter fills), then each
// walk advances through its Next decoder. It requires a cache — the whole
// point is warming it. Cancellation is honored between waves; blocks
// already submitted complete; the caller settles the returned handle. The
// walk states and their block buffers come out of the engine's scratch pool,
// so a call allocates a constant (the handle and its goroutine) however many
// walks it is given.
func (e *Engine) Prefetch(ctx context.Context, walks []blockcache.Walk) *blockcache.Handle {
	if len(walks) == 0 || e.cache == nil {
		return blockcache.CompletedHandle()
	}
	h := blockcache.NewHandle()
	go func() {
		defer h.Finish()
		ws := e.getScratch(0)
		live := ws.walks[:0]
		for _, w := range walks {
			if w.Start == blockstore.Nil || w.Steps <= 0 {
				continue
			}
			live = append(live, walkState{w: w, addr: w.Start})
		}
		ws.walks = live
		defer e.putScratch(ws)
		if need := len(live) * blockstore.BlockSize; cap(ws.slab) < need {
			ws.slab = make([]byte, need)
		}
		for i := range live {
			live[i].buf = ws.slab[i*blockstore.BlockSize : (i+1)*blockstore.BlockSize]
		}
		for len(live) > 0 && ctx.Err() == nil {
			ws.addrs, ws.bufs = ws.addrs[:0], ws.bufs[:0]
			for i := range live {
				ws.addrs = append(ws.addrs, live[i].addr)
				ws.bufs = append(ws.bufs, live[i].buf)
			}
			fetchErr := e.readWave(ctx, ws.addrs, ws.bufs, nil, true, h)
			next := live[:0]
			for _, s := range live {
				if s.w.Next == nil {
					continue
				}
				// Best effort, per walk: a failed wave drops only the walks
				// whose block never made it into the cache (their buffers
				// hold garbage). The demand read will surface the error.
				if fetchErr != nil && !e.cache.PeekQuiet(s.addr, s.buf) {
					continue
				}
				a := s.w.Next(s.step, s.buf)
				s.step++
				if a == blockstore.Nil || s.step >= s.w.Steps {
					continue
				}
				s.addr = a
				next = append(next, s)
			}
			live = next
		}
	}()
	return h
}
