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
//   - Dedup: concurrent requests for the same block — coalescer fan-in and
//     shard fan-out routinely hash different queries to the same buckets —
//     share one in-flight backend read, singleflight style. The dedup table
//     sits in front of the cache: a joiner never touches the backend and
//     never double-counts a miss.
//
// Cache interaction: when a cache is attached, every miss's fill goes
// through it (Put on completion), and a demand hit is served from it without
// reaching the dedup or submission layers; cache probes run outside the
// engine lock, so hits keep the cache's lock-striped concurrency. Leaders
// complete their reads even if a waiter's context is canceled, so a canceled
// query can never poison a read another query is waiting on.
package ioengine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
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

// flight is one in-flight backend read other callers may join.
type flight struct {
	done chan struct{}
	data [blockstore.BlockSize]byte
	err  error
}

// Engine is the shared submission layer. All methods are safe for
// concurrent use; one engine is meant to be shared by every searcher (and
// their readahead) of an index, so the depth bound and the dedup table span
// the whole serving process.
type Engine struct {
	src     Source
	cache   *blockcache.Cache
	sem     chan struct{} // a token per physical operation in flight, Depth of them
	retries int
	backoff time.Duration
	quar    quarantine

	mu       sync.Mutex
	inflight map[blockstore.Addr]*flight //lsh:guardedby mu

	// scratch pools readWave's classification slices, so a fully
	// cache-resident wave allocates nothing in steady state.
	scratch sync.Pool

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
		sem:      make(chan struct{}, opts.Depth),
		retries:  opts.Retries,
		backoff:  backoff,
		quar:     quarantine{limit: quarLimit},
		inflight: make(map[blockstore.Addr]*flight),
	}, nil
}

// Depth returns the queue depth the engine was built with.
func (e *Engine) Depth() int { return cap(e.sem) }

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

// lookupFlight returns the in-flight read for a, if any.
func (e *Engine) lookupFlight(a blockstore.Addr) *flight {
	e.mu.Lock()
	fl := e.inflight[a]
	e.mu.Unlock()
	return fl
}

// Read fetches one block into buf (len >= BlockSize): dedup table, then
// cache (probed outside the engine lock), then backend. ctx only bounds
// waiting on another caller's flight; a read this call leads always
// completes, so sharers are never poisoned.
//
//lsh:hotpath
func (e *Engine) Read(ctx context.Context, a blockstore.Addr, buf []byte, st *BatchStats) error {
	e.reads.Add(1)
	if fl := e.lookupFlight(a); fl != nil {
		return e.join(ctx, fl, buf, st)
	}
	if e.cache != nil && e.cache.Get(a, buf) {
		if st != nil {
			st.CacheHits++
		}
		return nil
	}
	// Miss: re-check the dedup table before becoming the leader — another
	// caller may have registered while we probed the cache.
	e.mu.Lock()
	if fl := e.inflight[a]; fl != nil {
		e.mu.Unlock()
		return e.join(ctx, fl, buf, st)
	}
	//lsh:allocok miss path: the flight outlives the call and must escape
	fl := &flight{done: make(chan struct{})}
	e.inflight[a] = fl
	e.mu.Unlock()
	if st != nil {
		if e.cache != nil {
			st.CacheMisses++
		}
		st.PhysicalReads++
	}
	err := e.readPhysical(a, buf)
	e.publish(a, fl, buf, err, false, nil)
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

// readOnce is one physical single-block backend attempt, with the engine's
// depth bound and latency accounting.
func (e *Engine) readOnce(a blockstore.Addr, buf []byte) error {
	lat := e.lat.Load()
	var t0 time.Time
	if lat != nil {
		t0 = time.Now()
	}
	e.sem <- struct{}{}
	err := e.src.ReadBlock(a, buf)
	<-e.sem
	if lat != nil {
		lat.Observe(time.Since(t0))
	}
	e.physical.Add(1)
	return err
}

// readPhysical is the fault-tolerant single-block read every leader path
// funnels through: quarantine fast-fail, then up to 1+Retries attempts with
// capped exponential backoff. The depth slot is held per attempt, never
// across a backoff sleep. An address that exhausts its budget is
// quarantined so later queries fail it fast instead of re-paying the
// ladder.
func (e *Engine) readPhysical(a blockstore.Addr, buf []byte) error {
	if qerr := e.quar.check(a); qerr != nil {
		e.quarHits.Add(1)
		return qerr
	}
	err := e.readOnce(a, buf)
	for attempt := 0; attempt < e.retries && retryable(err); attempt++ {
		e.retried.Add(1)
		e.sleepBackoff(attempt)
		err = e.readOnce(a, buf)
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

// join waits for another caller's flight and copies its result out.
func (e *Engine) join(ctx context.Context, fl *flight, buf []byte, st *BatchStats) error {
	e.deduped.Add(1)
	if st != nil {
		st.DedupedReads++
		if e.cache != nil {
			st.CacheHits++
		}
	}
	return e.joinQuiet(ctx, fl, buf)
}

// joinQuiet is join without counter updates (batch paths count at
// classification time).
func (e *Engine) joinQuiet(ctx context.Context, fl *flight, buf []byte) error {
	select {
	case <-fl.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if fl.err != nil {
		return fl.err
	}
	copy(buf[:blockstore.BlockSize], fl.data[:])
	return nil
}

// publish completes a flight: fill the cache, retire the dedup entry, wake
// waiters. The cache fill lands before the dedup entry is removed, so a
// request arriving in between finds the block somewhere. Quiet fills count
// as prefetched (into h) instead of demand traffic.
func (e *Engine) publish(a blockstore.Addr, fl *flight, buf []byte, err error, quiet bool, h *blockcache.Handle) {
	fl.err = err
	if err == nil {
		copy(fl.data[:], buf[:blockstore.BlockSize])
		if e.cache != nil {
			if quiet {
				e.cache.PutPrefetched(a, buf)
				h.Add(1)
			} else {
				e.cache.Put(a, buf)
			}
		}
	}
	e.mu.Lock()
	delete(e.inflight, a)
	e.mu.Unlock()
	close(fl.done)
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

// join1 is one position waiting on a flight.
type join1 struct {
	pos int
	fl  *flight
}

// waveScratch is one readWave call's reusable classification arena.
type waveScratch struct {
	joins   []join1
	unknown []int
	lead    []int
	sorted  []blockstore.Addr
	runs    []run
}

//lsh:hotpath
func (e *Engine) getScratch() *waveScratch {
	if ws, ok := e.scratch.Get().(*waveScratch); ok {
		ws.joins = ws.joins[:0]
		ws.unknown = ws.unknown[:0]
		ws.lead = ws.lead[:0]
		ws.sorted = ws.sorted[:0]
		ws.runs = ws.runs[:0]
		return ws
	}
	//lsh:allocok cold pool miss: one arena per concurrent wave, then reused
	return &waveScratch{}
}

// run is one coalesced submission: positions batch[i] for i in [lo, hi)
// whose addresses are adjacent.
type run struct{ lo, hi int }

// readWave is the one implementation behind ReadBatch (quiet=false, demand
// accounting into st) and the prefetcher's waves (quiet=true: cache probes
// through PeekQuiet so demand Hits/Misses stay pure, fills through
// PutPrefetched into h, no per-call stats). It classifies every position —
// dedup join, cache hit, or leader miss — probing the cache outside the
// engine lock, then submits the misses as coalesced runs.
//
//lsh:hotpath
func (e *Engine) readWave(ctx context.Context, addrs []blockstore.Addr, bufs [][]byte, st *BatchStats, quiet bool, h *blockcache.Handle) error {
	ws := e.getScratch()
	var (
		joins   = ws.joins
		unknown = ws.unknown
		lead    = ws.lead
		flights map[blockstore.Addr]*flight // lazy: only miss-bearing waves pay for it
		bst     BatchStats
	)
	// Hand the (possibly regrown) backing arrays back to the pool. Safe:
	// submit waits for its goroutines and every join resolves before return.
	defer func() {
		ws.joins, ws.unknown, ws.lead = joins, unknown, lead
		e.scratch.Put(ws)
	}()
	// Pass 1, under the lock: peel off joins against reads already in
	// flight. Everything else is unknown until the cache is probed.
	e.mu.Lock()
	for i, a := range addrs {
		if fl := e.inflight[a]; fl != nil {
			joins = append(joins, join1{i, fl})
			continue
		}
		unknown = append(unknown, i)
	}
	e.mu.Unlock()
	if !quiet {
		bst.DedupedReads += len(joins)
		if e.cache != nil {
			bst.CacheHits += len(joins)
		}
		e.deduped.Add(int64(len(joins)))
	}

	// Pass 2, lock-free: cache probes (the cache has its own lock stripes).
	misses := unknown[:0]
	for _, i := range unknown {
		if e.cache != nil && e.cacheProbe(addrs[i], bufs[i], quiet) {
			if !quiet {
				bst.CacheHits++
			}
			continue
		}
		misses = append(misses, i)
	}

	// Pass 3, under the lock: re-check the dedup table (a leader may have
	// registered while we probed), dedup duplicates within the batch, and
	// register this call's flights.
	if len(misses) > 0 {
		e.mu.Lock()
		for _, i := range misses {
			a := addrs[i]
			if fl := e.inflight[a]; fl != nil {
				joins = append(joins, join1{i, fl})
				if !quiet {
					bst.DedupedReads++
					if e.cache != nil {
						bst.CacheHits++
					}
					e.deduped.Add(1)
				}
				continue
			}
			//lsh:allocok miss path: flights escape into the dedup table
			fl := &flight{done: make(chan struct{})}
			e.inflight[a] = fl
			if flights == nil {
				//lsh:allocok miss path: only miss-bearing waves pay for the table
				flights = make(map[blockstore.Addr]*flight, len(misses))
			}
			flights[a] = fl
			lead = append(lead, i)
			if !quiet && e.cache != nil {
				bst.CacheMisses++
			}
		}
		e.mu.Unlock()
	}

	var firstErr error
	if len(lead) > 0 {
		//lsh:allocok miss path: sort.Slice boxes its less closure
		sort.Slice(lead, func(x, y int) bool { return addrs[lead[x]] < addrs[lead[y]] })
		runs := splitRuns(addrs, lead, ws)
		bst.CoalescedReads += len(lead) - len(runs)
		bst.PhysicalReads += len(runs)
		e.coalesced.Add(int64(len(lead) - len(runs)))
		firstErr = e.submit(addrs, bufs, lead, runs, flights, quiet, h)
	}

	// Resolve joins last: our own flights are done, foreign flights may
	// still be in progress. Only here does ctx apply.
	for _, j := range joins {
		if err := e.joinQuiet(ctx, j.fl, bufs[j.pos]); err != nil && firstErr == nil {
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

// splitRuns partitions the address-sorted lead positions into runs of
// adjacent addresses, delegating the run boundary to blockstore.NextRun so
// the engine's submission units are exactly the backends' physical
// operations. Both working slices live in the wave scratch.
//
//lsh:hotpath
func splitRuns(addrs []blockstore.Addr, lead []int, ws *waveScratch) []run {
	sorted := ws.sorted[:0]
	for _, pos := range lead {
		sorted = append(sorted, addrs[pos])
	}
	runs := ws.runs[:0]
	for i := 0; i < len(sorted); {
		j := blockstore.NextRun(sorted, i)
		runs = append(runs, run{i, j})
		i = j
	}
	ws.sorted, ws.runs = sorted, runs
	return runs
}

// submit drives the runs at the engine's queue depth and publishes every
// flight. Single-run batches run inline; larger batches fan out.
func (e *Engine) submit(addrs []blockstore.Addr, bufs [][]byte, lead []int, runs []run, flights map[blockstore.Addr]*flight, quiet bool, h *blockcache.Handle) error {
	if len(runs) == 1 {
		return e.submitRun(addrs, bufs, lead, runs[0], flights, quiet, h)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, r := range runs {
		wg.Add(1)
		go func(r run) {
			defer wg.Done()
			if err := e.submitRun(addrs, bufs, lead, r, flights, quiet, h); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	return firstErr
}

// submitRun performs one coalesced physical operation and publishes its
// flights. A failed vectored read over a retry-enabled engine degrades to
// per-block salvage — each block gets its own retry ladder — so one bad
// block cannot poison its run-mates; runs containing a quarantined address
// skip the doomed vectored attempt and go straight to salvage.
func (e *Engine) submitRun(addrs []blockstore.Addr, bufs [][]byte, lead []int, r run, flights map[blockstore.Addr]*flight, quiet bool, h *blockcache.Handle) error {
	n := r.hi - r.lo
	runAddrs := make([]blockstore.Addr, n)
	runBufs := make([][]byte, n)
	for k := 0; k < n; k++ {
		pos := lead[r.lo+k]
		runAddrs[k] = addrs[pos]
		runBufs[k] = bufs[pos]
	}
	if !e.quar.containsAny(runAddrs) {
		lat := e.lat.Load()
		var t0 time.Time
		if lat != nil {
			t0 = time.Now()
		}
		e.sem <- struct{}{}
		_, err := e.src.ReadBlocks(runAddrs, runBufs)
		<-e.sem
		if lat != nil {
			lat.Observe(time.Since(t0))
		}
		e.physical.Add(1)
		if err == nil || e.retries == 0 || !retryable(err) {
			if err != nil && retryable(err) {
				e.faulted.Add(1)
			}
			for k := 0; k < n; k++ {
				pos := lead[r.lo+k]
				e.publish(addrs[pos], flights[addrs[pos]], bufs[pos], err, quiet, h)
			}
			return err
		}
	}
	var firstErr error
	for k := 0; k < n; k++ {
		pos := lead[r.lo+k]
		berr := e.readPhysical(addrs[pos], bufs[pos])
		e.publish(addrs[pos], flights[addrs[pos]], bufs[pos], berr, quiet, h)
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
// already submitted complete; the caller settles the returned handle.
func (e *Engine) Prefetch(ctx context.Context, walks []blockcache.Walk) *blockcache.Handle {
	if len(walks) == 0 || e.cache == nil {
		return blockcache.CompletedHandle()
	}
	h := blockcache.NewHandle()
	go func() {
		defer h.Finish()
		type state struct {
			w    blockcache.Walk
			addr blockstore.Addr
			step int
			buf  []byte
		}
		live := make([]*state, 0, len(walks))
		for _, w := range walks {
			if w.Start == blockstore.Nil || w.Steps <= 0 {
				continue
			}
			live = append(live, &state{w: w, addr: w.Start, buf: make([]byte, blockstore.BlockSize)})
		}
		addrs := make([]blockstore.Addr, 0, len(live))
		bufs := make([][]byte, 0, len(live))
		for len(live) > 0 && ctx.Err() == nil {
			addrs = addrs[:0]
			bufs = bufs[:0]
			for _, s := range live {
				addrs = append(addrs, s.addr)
				bufs = append(bufs, s.buf)
			}
			fetchErr := e.readWave(ctx, addrs, bufs, nil, true, h)
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
