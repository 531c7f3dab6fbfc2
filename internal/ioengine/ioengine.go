// Package ioengine is the shared asynchronous read engine of the storage
// path: a bounded-queue-depth submission layer between the query engines and
// a blockstore backend.
//
// The paper's Table 2 shows that SSD-class devices only reach their rated
// random-read IOPS at high queue depth; issuing one blocking ReadBlock at a
// time leaves the device at queue depth 1. The engine accepts *vectored*
// waves of block addresses — one radius round's table entries, one level of
// bucket-chain blocks — and serves each in two steps:
//
//   - Cache: when a cache is attached, every position is probed first, and a
//     hit never reaches the backend. Every backend read fills the cache.
//   - Coalesced reads at queue depth: the wave's misses are sorted, the
//     first of each run of equal addresses leads the read (its duplicates
//     copy from it afterwards), and runs of adjacent addresses merge into
//     single vectored backend calls (one pread on the file backend), bounded
//     by blockstore.MaxCoalesce. Up to Depth of them are in flight at once.
//
// A wave's runs are performed by the goroutine that asked for them, and
// helpers — up to Depth−1 — are started only while the engine is blocking
// (see Blocking): after a run of backend operations that each took longer
// than a few goroutine hand-offs. A backend that answers from memory or the
// page cache pays for no goroutine hand-off; a device still sees the wave at
// full depth. The searchers read the same signal to decide whether a query's
// rounds go out as waves at all.
//
// Reads are never shared between calls: two queries that miss on the same
// block both read it, as in the paper. Every read a call starts runs to
// completion; cancellation is the caller's business between waves.
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
	// (the device queue depth the engine sustains); a single-block Read
	// while the engine is not blocking is not counted against it. Must be
	// >= 1.
	Depth int
	// Cache, when non-nil, serves demand hits and receives every miss's
	// fill: one Get per demand read, one Put per backend read.
	Cache *blockcache.Cache
	// Retries is the per-read retry budget: how many times a failed physical
	// read of one block is re-attempted when the failure classifies as a
	// transient storage fault (EIO, short read, checksum mismatch — anything
	// except context cancellation and invalid addresses), after a backoff
	// from retryBackoff. An address that exhausts the budget is quarantined
	// (at most quarantineLimit of them). 0 disables retries, quarantine
	// included.
	Retries int
}

// retryBackoff is the base delay before a first retry; it doubles per
// attempt, capped at 8x, with ±50% jitter so concurrent queries hitting the
// same sick device do not retry in lockstep. The engine's queue-depth slot
// is released while backing off, so a retrying read never stalls healthy
// traffic.
const retryBackoff = 200 * time.Microsecond

// quarantineLimit bounds the quarantine set: addresses that exhausted their
// retry budget fail fast on later reads instead of re-paying the full
// backoff ladder, until evicted FIFO by newer entrants.
const quarantineLimit = 1024

// BatchStats reports what one Read or ReadBatch call did, in the per-query
// units the searchers fold into their Stats.
type BatchStats struct {
	// CacheHits and CacheMisses count cache outcomes (zero without a cache).
	// A deduped read counts as a hit: it never reached the backend.
	CacheHits   int
	CacheMisses int
	// DedupedReads counts reads satisfied by an earlier position of the same
	// wave that asked for the same block.
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
	// Reads is the number of block reads requested (demand traffic; prefetch
	// waves are not counted). The per-call BatchStats break a call's reads
	// down into cache hits, dedups, coalesced and physical reads.
	Reads int64
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
	// Blocking is 1 while the engine is blocking (see Engine.Blocking), 0
	// otherwise (a gauge).
	Blocking int64
}

// Add folds o into c, which is how a sharded index totals its shards'
// engines (Quarantined sums too: the shards' stores are disjoint; Blocking
// is 1 when any shard's engine is).
func (c *Counters) Add(o Counters) {
	c.Reads += o.Reads
	c.RetriedReads += o.RetriedReads
	c.FaultedReads += o.FaultedReads
	c.QuarantineHits += o.QuarantineHits
	c.Quarantined += o.Quarantined
	c.Blocking = max(c.Blocking, o.Blocking)
}

// Engine is the shared submission layer. All methods are safe for
// concurrent use; one engine is meant to be shared by every searcher (and
// their readahead) of an index, so the depth bound and the cache span the
// whole serving process.
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
	epoch   time.Time // what operate's clock readings are offsets from
	quar    quarantine

	// scratch pools the per-call arenas (*waveScratch), so neither a fully
	// cache-resident wave nor an all-miss one allocates in steady state.
	scratch sync.Pool

	// slow is the length of the latest run of consecutive timed backend
	// operations over blockingOp, capped at blockingRun; see Blocking. A new
	// engine starts at zero, non-blocking.
	slow atomic.Int32

	reads    atomic.Int64
	retried  atomic.Int64
	faulted  atomic.Int64
	quarHits atomic.Int64

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
	return &Engine{
		src:     src,
		cache:   opts.Cache,
		depth:   int64(opts.Depth),
		handoff: make(chan struct{}, opts.Depth),
		retries: opts.Retries,
		epoch:   time.Now(),
	}, nil
}

// Depth returns the queue depth the engine was built with.
func (e *Engine) Depth() int { return int(e.depth) }

// Cache returns the attached cache (nil when uncached).
func (e *Engine) Cache() *blockcache.Cache { return e.cache }

// Counters returns the cumulative engine totals.
func (e *Engine) Counters() Counters {
	c := Counters{
		Reads:          e.reads.Load(),
		RetriedReads:   e.retried.Load(),
		FaultedReads:   e.faulted.Load(),
		QuarantineHits: e.quarHits.Load(),
		Quarantined:    int64(e.quar.len()),
	}
	if e.Blocking() {
		c.Blocking = 1
	}
	return c
}

// Blocking reports whether the backend blocks: whether the latest
// blockingRun timed operations each took longer than blockingOp. While it
// does, a wave's runs overlap on helper goroutines and the searchers read a
// round whole as waves and run readahead; while it does not, overlapping
// buys nothing and the searchers walk in line through Read, which then times
// one read in timeEvery. Any timed operation under blockingOp makes the
// engine non-blocking again, so one preempted read or collector pause cannot
// flip a memory slab or a warm file into waves, while a device whose every
// operation blocks turns blocking within blockingRun·timeEvery reads.
//
//lsh:hotpath
func (e *Engine) Blocking() bool { return e.slow.Load() >= blockingRun }

// Read fetches one block into buf (len >= BlockSize): from the cache when
// it holds the block, else from the backend — one physical operation,
// retried and quarantined like any other — filling the cache. While the
// engine is blocking the operation waits for a depth slot and is timed.
// While it is not, it takes no slot, as nothing queues on a backend that
// does not block, and only one read in timeEvery reads the clock for the
// blocking signal (every one does while a latency histogram is attached).
// Read takes no arena either: the in-line walk that reads through it pays
// the backend read and the read counter, and allocates nothing.
//
//lsh:hotpath
func (e *Engine) Read(a blockstore.Addr, buf []byte, st *BatchStats) error {
	n := e.reads.Add(1)
	if e.cache != nil && e.cache.Get(a, buf) {
		if st != nil {
			st.CacheHits++
		}
		return nil
	}
	if st != nil {
		if e.cache != nil {
			st.CacheMisses++
		}
		st.PhysicalReads++
	}
	blocking := e.Blocking()
	err := e.readPhysical(a, buf, blocking, blocking || n%timeEvery == 0)
	if err == nil && e.cache != nil {
		e.cache.Put(a, buf)
	}
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

// blockingRun is how many consecutive timed operations over blockingOp turn
// the engine blocking: more than a preemption or a collector pause strings
// together over a backend that does not block.
const blockingRun = 8

// timeEvery is how sparsely Read times its operations while the engine is
// not blocking. Two clock readings cost a page-cache pread a sixth of its
// time; one read in eight keeps the signal's cost under a percent of a walk
// and still tips it within 64 reads of a device, about one query's worth.
const timeEvery = 8

// observe feeds one timed operation's backend time to the blocking signal.
// Over blockingOp it lengthens the run of slow operations, up to
// blockingRun; under it, it ends the run. Concurrent operations may lose an
// update either way, which only delays the verdict by an operation.
//
//lsh:hotpath
func (e *Engine) observe(d time.Duration) {
	n := e.slow.Load()
	switch {
	case d <= blockingOp:
		if n != 0 {
			e.slow.Store(0)
		}
	case n < blockingRun:
		e.slow.Store(n + 1)
	}
}

// acquire opens one timed physical operation: when queued it takes a depth
// slot, waiting for one if every slot is held. It returns the submit time
// the latency histogram lat (nil when none is attached) observes the
// operation from. Times are offsets from the engine's epoch (time.Since
// reads the monotonic clock only, half the price of time.Now).
//
//lsh:hotpath
func (e *Engine) acquire(lat *telemetry.Histogram, queued bool) time.Duration {
	var submitted time.Duration
	if lat != nil && queued {
		submitted = time.Since(e.epoch)
	}
	if queued && e.slots.Add(1) > e.depth {
		<-e.handoff // every slot is held: take the next one released
	}
	return submitted
}

// release closes an operation acquire opened, giving its depth slot back
// when queued, and records it: the backend time, started to done, feeds the
// blocking signal, and the histogram observes submit→done, depth-slot wait
// included. The blocking test looks at the backend alone, so fanned-out
// waves contending for slots over a fast backend cannot keep the engine
// blocking.
//
//lsh:hotpath
func (e *Engine) release(queued bool, lat *telemetry.Histogram, submitted, started time.Duration) {
	done := time.Since(e.epoch)
	if queued && e.slots.Add(-1) >= e.depth {
		e.handoff <- struct{}{} // an operation is waiting: hand it this slot
	}
	e.observe(done - started)
	if lat != nil {
		if !queued {
			submitted = started // nothing was waited for
		}
		lat.Observe(done - submitted)
	}
}

// operate performs one physical backend operation on block a alone, under
// the depth bound when queued (which implies timed): a run of one has
// nothing to coalesce, so it does not go through ReadBlocks. An untimed
// operation with no latency histogram attached is the bare backend read.
//
//lsh:hotpath
func (e *Engine) operate(a blockstore.Addr, buf []byte, queued, timed bool) error {
	lat := e.lat.Load()
	if !timed && lat == nil {
		return e.src.ReadBlock(a, buf)
	}
	submitted := e.acquire(lat, queued)
	started := time.Since(e.epoch)
	err := e.src.ReadBlock(a, buf)
	e.release(queued, lat, submitted, started)
	return err
}

// operateRun performs the run of ws's blocks [lo, hi) as one timed physical
// backend operation under the depth bound.
//
//lsh:hotpath
func (e *Engine) operateRun(ws *waveScratch, lo, hi int) error {
	if hi-lo == 1 {
		return e.operate(ws.addrs[lo], ws.bufs[lo], true, true)
	}
	lat := e.lat.Load()
	submitted := e.acquire(lat, true)
	started := time.Since(e.epoch)
	_, err := e.src.ReadBlocks(ws.addrs[lo:hi], ws.bufs[lo:hi])
	e.release(true, lat, submitted, started)
	return err
}

// readPhysical is the fault-tolerant read of block a into buf behind Read
// and a failed run's per-block salvage: quarantine fast-fail, then up to
// 1+Retries attempts with capped exponential backoff, each operated as
// queued and timed say. The depth slot is held per attempt, never across a
// backoff sleep. An address that exhausts its budget is quarantined so
// later queries fail it fast instead of re-paying the ladder.
//
//lsh:hotpath
func (e *Engine) readPhysical(a blockstore.Addr, buf []byte, queued, timed bool) error {
	if qerr := e.quar.check(a); qerr != nil {
		e.quarHits.Add(1)
		return qerr
	}
	err := e.operate(a, buf, queued, timed)
	for attempt := 0; attempt < e.retries && retryable(err); attempt++ {
		e.retried.Add(1)
		e.sleepBackoff(attempt)
		err = e.operate(a, buf, queued, timed)
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
	d := retryBackoff << min(attempt, 3)
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	time.Sleep(d)
}

// lead appends a read this call will perform itself.
//
//lsh:hotpath
func (ws *waveScratch) lead(a blockstore.Addr, buf []byte) {
	ws.addrs = append(ws.addrs, a)
	ws.bufs = append(ws.bufs, buf)
}

// fill puts ws's reads [lo, hi), which all ended with err, into the cache.
// Quiet fills count as prefetched (into ws.h) instead of demand traffic.
//
//lsh:hotpath
func (e *Engine) fill(ws *waveScratch, lo, hi int, err error) {
	if err != nil || e.cache == nil {
		return
	}
	for k := lo; k < hi; k++ {
		if ws.quiet {
			e.cache.PutPrefetched(ws.addrs[k], ws.bufs[k])
			ws.h.Add(1)
		} else {
			e.cache.Put(ws.addrs[k], ws.bufs[k])
		}
	}
}

// ReadBatch fetches addrs[i] into bufs[i] for every i, as one vectored
// round: cache hits are peeled off, the remaining misses are sorted,
// coalesced into adjacent runs and submitted with up to Depth physical
// operations in flight. Duplicate addresses within the batch share one read.
// The call returns when every block is resolved; ctx is not consulted, as
// every read the call starts runs to completion.
func (e *Engine) ReadBatch(ctx context.Context, addrs []blockstore.Addr, bufs [][]byte, st *BatchStats) error {
	if len(addrs) != len(bufs) {
		return fmt.Errorf("ioengine: %d addresses but %d buffers", len(addrs), len(bufs))
	}
	if len(addrs) == 0 {
		return nil
	}
	e.reads.Add(int64(len(addrs)))
	return e.readWave(addrs, bufs, st, false, nil)
}

// miss is one position of a wave that the cache did not serve.
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
	misses []miss // positions the cache did not serve, in address order

	// The reads this call leads, in address order: reads [lo, hi) of a run
	// are one backend call on addrs[lo:hi], bufs[lo:hi]. (Prefetch keeps the
	// wave it is about to submit in addrs and bufs.)
	addrs []blockstore.Addr
	bufs  [][]byte
	runs  []run

	// Submission state, shared with the helpers of a fanned-out wave.
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

// getScratch returns a pooled arena.
//
//lsh:hotpath
func (e *Engine) getScratch() *waveScratch {
	if ws, ok := e.scratch.Get().(*waveScratch); ok {
		return ws
	}
	//lsh:allocok cold pool miss: one arena per concurrent call, then reused
	return &waveScratch{}
}

// putScratch empties ws, dropping its references to caller buffers and walk
// closures, and returns it to the pool.
//
//lsh:hotpath
func (e *Engine) putScratch(ws *waveScratch) {
	clear(ws.bufs)
	clear(ws.walks)
	ws.misses, ws.addrs, ws.bufs = ws.misses[:0], ws.addrs[:0], ws.bufs[:0]
	ws.runs, ws.walks = ws.runs[:0], ws.walks[:0]
	ws.quiet, ws.h = false, nil
	e.scratch.Put(ws)
}

// readWave is the one implementation behind ReadBatch (quiet=false, demand
// accounting into st) and the prefetcher's waves (quiet=true: cache probes
// through PeekQuiet so demand Hits/Misses stay pure, fills through
// PutPrefetched into h, no per-call stats). It probes the cache, sorts the
// misses, leads the first read of each run of equal addresses, submits the
// leads as coalesced runs, and copies each duplicate from its lead.
//
//lsh:hotpath
func (e *Engine) readWave(addrs []blockstore.Addr, bufs [][]byte, st *BatchStats, quiet bool, h *blockcache.Handle) error {
	ws := e.getScratch()
	defer e.putScratch(ws)
	ws.quiet, ws.h = quiet, h
	var bst BatchStats

	misses := ws.misses
	for i, a := range addrs {
		if e.cache != nil && e.cacheProbe(a, bufs[i], quiet) {
			if !quiet {
				bst.CacheHits++
			}
			continue
		}
		misses = append(misses, miss{a, i})
	}
	ws.misses = misses
	slices.SortFunc(misses, func(x, y miss) int { return cmp.Compare(x.addr, y.addr) })
	for j, m := range misses {
		if j == 0 || m.addr != misses[j-1].addr {
			ws.lead(m.addr, bufs[m.pos])
		}
	}
	leads := len(ws.addrs)
	dups := len(misses) - leads
	if !quiet {
		bst.DedupedReads += dups
		if e.cache != nil {
			bst.CacheHits += dups
			bst.CacheMisses += leads
		}
	}

	var err error
	if leads > 0 {
		// Runs of adjacent addresses, by the backends' own rule: a submission
		// unit is exactly one physical operation.
		for i := 0; i < leads; i = ws.runs[len(ws.runs)-1].hi {
			ws.runs = append(ws.runs, run{i, blockstore.NextRun(ws.addrs, i)})
		}
		bst.CoalescedReads += leads - len(ws.runs)
		bst.PhysicalReads += len(ws.runs)
		err = e.submit(ws)
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
	if st != nil {
		st.add(bst)
	}
	return err
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

// submit performs the wave's runs and fills the cache. The calling
// goroutine claims runs off a shared cursor and performs them itself; while
// the engine is not blocking (see Blocking) that is the whole submission.
// Once it is — from the first run, or from the run whose operation tips it
// — up to Depth−1 helpers are started on the same cursor, so a device still
// sees the wave at the engine's queue depth.
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
		if !ws.fanned && e.Blocking() {
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

// submitRun performs one coalesced physical operation and fills the cache
// with its blocks. A failed vectored read over a retry-enabled engine
// degrades to per-block salvage — each block gets its own retry ladder — so
// one bad block cannot poison its run-mates; runs containing a quarantined
// address skip the doomed vectored attempt and go straight to salvage.
//
//lsh:hotpath
func (e *Engine) submitRun(ws *waveScratch, r run) error {
	if !e.quar.containsAny(ws.addrs[r.lo:r.hi]) {
		err := e.operateRun(ws, r.lo, r.hi)
		if err == nil || e.retries == 0 || !retryable(err) {
			if err != nil && retryable(err) {
				e.faulted.Add(1)
			}
			e.fill(ws, r.lo, r.hi, err)
			return err
		}
	}
	var firstErr error
	for k := r.lo; k < r.hi; k++ {
		berr := e.readPhysical(ws.addrs[k], ws.bufs[k], true, true)
		e.fill(ws, k, k+1, berr)
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
		ws := e.getScratch()
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
			fetchErr := e.readWave(ws.addrs, ws.bufs, nil, true, h)
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
