// Package sched executes query workloads over the simulated storage stack in
// virtual time, reproducing the two execution models of the paper's Fig 1:
//
//   - Asynchronous (Fig 1B): a query issues read requests without blocking
//     and switches to another query while data is in flight, so CPU work and
//     storage time overlap and the device sees a deep queue (§5.4).
//   - Synchronous (Fig 1A): every read blocks the issuing CPU until the
//     device returns, optionally faulting through an LRU page cache — the
//     mmap baseline of §6.5.
//
// Queries are deterministic continuation chains: a segment of CPU work ends
// either by issuing asynchronous reads (whose continuations are scheduled at
// completion time) or by finishing the query. The engine charges interface
// CPU overhead per request (T_request) and tracks the compute/I-O-cost
// decomposition that Fig 12 reports.
package sched

import (
	"fmt"
	"slices"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/iosim"
	"e2lshos/internal/pagecache"
	"e2lshos/internal/simclock"
)

// Config describes one engine run.
type Config struct {
	// CPUs is the number of virtual cores (the thread count of Fig 16).
	CPUs int
	// Iface is the host storage interface (Table 3).
	Iface iosim.InterfaceSpec
	// Pool is the device set (Table 5).
	Pool *iosim.Pool
	// Store is the data plane blocks are read from.
	Store *blockstore.Store
	// Sync selects the blocking execution model of Fig 1(A).
	Sync bool
	// PageCache, if non-nil in Sync mode, interposes an LRU page cache
	// (§6.5's mmap baseline). Reads that hit cost CacheHitCost of CPU time;
	// misses cost PageFaultOverhead plus the blocking device read.
	//
	// The field is the mutex-guarded pagecache.Shared, not the bare Cache:
	// a bare Cache is not safe for concurrent use, and one page cache is
	// routinely shared across engines (several simulated hosts faulting into
	// one OS cache), so sched guards the shared cache by type instead of
	// relying on the comment in pagecache.
	PageCache         *pagecache.Shared
	PageFaultOverhead simclock.Time
	CacheHitCost      simclock.Time
}

// Validate reports whether the config is runnable.
func (c Config) Validate() error {
	switch {
	case c.CPUs <= 0:
		return fmt.Errorf("sched: CPUs must be positive, got %d", c.CPUs)
	case c.Pool == nil:
		return fmt.Errorf("sched: nil device pool")
	case c.Store == nil:
		return fmt.Errorf("sched: nil block store")
	case c.PageCache != nil && !c.Sync:
		return fmt.Errorf("sched: page cache requires Sync mode")
	}
	return nil
}

// QueryFunc is the body of one query. It runs as the query's first segment;
// it may Charge CPU time, issue ReadVec batches, and must eventually call done
// (possibly from a read continuation).
type QueryFunc func(q int, tc *Ctx, done func())

// segment is one schedulable unit of CPU work belonging to one query.
type segment struct {
	ctx       *Ctx
	notBefore simclock.Time
	fn        func()
	buf       []byte // completion buffer to recycle after the segment runs
}

type cpuState struct {
	freeAt    simclock.Time
	ready     []segment
	scheduled bool
	pending   []int // query indexes not yet started
	active    int
}

// Engine runs query batches. Create a fresh engine per run.
type Engine struct {
	cfg  Config
	q    simclock.Queue
	cpus []cpuState
	free [][]byte // buffer freelist

	compute    simclock.Time // total Charge across cpus
	ioOverhead simclock.Time // total interface/page CPU cost
	ios        int64
	coalesced  int64             // reads merged into another run's request by ReadVec
	faults     int64             // block reads degraded to zero blocks by store failures
	runScratch []blockstore.Addr // countRuns sort arena, reused across waves
	doneCount  int
	spans      []simclock.Time
	starts     []simclock.Time
	lastDone   simclock.Time
	queryFn    QueryFunc
}

// New creates an engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, cpus: make([]cpuState, cfg.CPUs)}, nil
}

// Ctx is a query's execution context. One Ctx accompanies a query through
// all of its segments; the engine rebinds its clock at every segment start,
// so Charge, ReadVec and done always act at the query's current virtual time.
// Methods may only be called while one of the query's segments is executing.
type Ctx struct {
	e      *Engine
	cpu    int
	qi     int
	t      simclock.Time
	done   bool
	faults int64 // reads this query saw degraded to zero blocks
}

// Now returns the query's current virtual time.
func (tc *Ctx) Now() simclock.Time { return tc.t }

// FaultedReads returns how many of this query's block reads failed at the
// store and were served as zero blocks instead (see readBlockDegraded).
// Callers use the between-rounds delta to attribute faults per radius.
func (tc *Ctx) FaultedReads() int64 { return tc.faults }

// Charge consumes ns nanoseconds of CPU time.
func (tc *Ctx) Charge(ns simclock.Time) {
	if ns < 0 {
		panic("sched: negative charge")
	}
	tc.t += ns
	tc.e.compute += ns
}

// ReadVec submits a batch of block reads as one vectored round (§5.4): the
// CPU pays the interface overhead once per coalesced run of adjacent
// addresses — the request-merging a vectored submission interface (preadv,
// io_uring linked SQEs) performs — instead of once per block, then every
// block is handed to the device pool at the same issue time, so the device
// sees the whole batch as its queue depth. cont runs on the issuing CPU as
// each block arrives, with this same Ctx; the order of continuations follows
// device completion order, and the block buffer passed to cont is only valid
// during cont's execution. It returns the number of coalesced runs charged,
// so callers can report len(addrs) − runs as reads saved by coalescing.
//
// In synchronous mode (Fig 1A) there is no vectored submission to model:
// the batch degrades to the blocking per-read path, overhead and all, and
// the run count equals len(addrs).
func (tc *Ctx) ReadVec(addrs []blockstore.Addr, cont func(i int, block []byte)) int {
	e := tc.e
	if len(addrs) == 0 {
		return 0
	}
	e.ios += int64(len(addrs))
	if e.cfg.Sync {
		for i, a := range addrs {
			i := i
			tc.syncRead(a, func(block []byte) { cont(i, block) })
		}
		return len(addrs)
	}
	runs := e.countRuns(addrs)
	e.coalesced += int64(len(addrs) - runs)
	overhead := e.cfg.Iface.RequestOverhead * simclock.Time(runs)
	tc.t += overhead
	e.ioOverhead += overhead
	issueAt := tc.t
	for i, a := range addrs {
		i, a := i, a
		e.q.Schedule(issueAt, func() {
			doneAt := e.cfg.Pool.Submit(e.q.Now(), uint64(a))
			e.q.Schedule(doneAt, func() {
				buf := e.getBuf()
				e.readBlockDegraded(tc, a, buf)
				e.enqueue(tc.cpu, segment{
					ctx:       tc,
					notBefore: e.q.Now(),
					fn:        func() { cont(i, buf) },
					buf:       buf,
				})
			})
		})
	}
	return runs
}

// countRuns counts the coalesced runs of a submission batch over a sorted
// copy of the addresses, using blockstore.NextRun so the merge rule is the
// exact one the wall-clock backends apply. The sort scratch is
// engine-owned: the event loop is single-goroutine and waves are frequent,
// so the counting step stays allocation-free in steady state.
func (e *Engine) countRuns(addrs []blockstore.Addr) int {
	e.runScratch = append(e.runScratch[:0], addrs...)
	slices.Sort(e.runScratch)
	runs := 0
	for i := 0; i < len(e.runScratch); i = blockstore.NextRun(e.runScratch, i) {
		runs++
	}
	return runs
}

// syncRead models Fig 1(A): overhead, then block until the device returns.
// With a page cache, only misses reach the device.
func (tc *Ctx) syncRead(addr blockstore.Addr, cont func(block []byte)) {
	e := tc.e
	if e.cfg.PageCache != nil {
		page := pagecache.PageOf(uint64(addr) * blockstore.BlockSize)
		if e.cfg.PageCache.Access(page) {
			tc.t += e.cfg.CacheHitCost
			e.ioOverhead += e.cfg.CacheHitCost
		} else {
			tc.t += e.cfg.PageFaultOverhead
			e.ioOverhead += e.cfg.PageFaultOverhead
			tc.t = e.cfg.Pool.Submit(tc.t, uint64(addr))
		}
	} else {
		tc.t += e.cfg.Iface.RequestOverhead
		e.ioOverhead += e.cfg.Iface.RequestOverhead
		tc.t = e.cfg.Pool.Submit(tc.t, uint64(addr))
	}
	buf := e.getBuf()
	e.readBlockDegraded(tc, addr, buf)
	cont(buf)
	e.putBuf(buf)
}

// readBlockDegraded fills buf from the store, degrading a failed read to an
// all-zero block instead of failing the run: a zero block decodes as a Nil
// table head or an empty bucket (next Nil, count 0), so the walk simply
// ends there — the virtual-time twin of the wall-clock skip-chain path.
// Faults are counted on the engine (Report.FaultedReads) and on the query's
// Ctx, so callers can mark results partial per query.
func (e *Engine) readBlockDegraded(tc *Ctx, addr blockstore.Addr, buf []byte) {
	if err := e.cfg.Store.ReadBlock(addr, buf); err != nil {
		clear(buf)
		e.faults++
		tc.faults++
	}
}

func (e *Engine) getBuf() []byte {
	if n := len(e.free); n > 0 {
		buf := e.free[n-1]
		e.free = e.free[:n-1]
		return buf
	}
	return make([]byte, blockstore.BlockSize)
}

func (e *Engine) putBuf(buf []byte) { e.free = append(e.free, buf) }

func (e *Engine) enqueue(cpu int, seg segment) {
	e.cpus[cpu].ready = append(e.cpus[cpu].ready, seg)
	e.maybeDispatch(cpu)
}

func (e *Engine) maybeDispatch(cpu int) {
	c := &e.cpus[cpu]
	if c.scheduled || len(c.ready) == 0 {
		return
	}
	at := c.freeAt
	if head := c.ready[0].notBefore; head > at {
		at = head
	}
	if now := e.q.Now(); now > at {
		at = now
	}
	c.scheduled = true
	e.q.Schedule(at, func() {
		c.scheduled = false
		e.runHead(cpu)
	})
}

func (e *Engine) runHead(cpu int) {
	c := &e.cpus[cpu]
	seg := c.ready[0]
	c.ready = c.ready[1:]
	start := e.q.Now()
	if seg.notBefore > start {
		start = seg.notBefore
	}
	if c.freeAt > start {
		start = c.freeAt
	}
	seg.ctx.t = start
	seg.fn()
	c.freeAt = seg.ctx.t
	if seg.buf != nil {
		e.putBuf(seg.buf)
	}
	e.maybeDispatch(cpu)
}

// startQuery enqueues the first segment of query qi on cpu.
func (e *Engine) startQuery(cpu, qi int, notBefore simclock.Time) {
	e.cpus[cpu].active++
	tc := &Ctx{e: e, cpu: cpu, qi: qi}
	e.enqueue(cpu, segment{
		ctx:       tc,
		notBefore: notBefore,
		fn: func() {
			e.starts[qi] = tc.t
			e.queryFn(qi, tc, func() { e.finishQuery(tc) })
		},
	})
}

func (e *Engine) finishQuery(tc *Ctx) {
	if tc.done {
		panic(fmt.Sprintf("sched: query %d called done twice", tc.qi))
	}
	tc.done = true
	c := &e.cpus[tc.cpu]
	c.active--
	e.doneCount++
	e.spans[tc.qi] = tc.t - e.starts[tc.qi]
	if tc.t > e.lastDone {
		e.lastDone = tc.t
	}
	if len(c.pending) > 0 {
		next := c.pending[0]
		c.pending = c.pending[1:]
		e.startQuery(tc.cpu, next, tc.t)
	}
}

// Report summarizes one batch run.
type Report struct {
	// Queries is the number of queries executed.
	Queries int
	// Makespan is the virtual time at which the last query completed.
	Makespan simclock.Time
	// Compute is the total CPU time consumed by Charge across cores.
	Compute simclock.Time
	// IOOverhead is the total CPU time spent issuing I/O (T_request per
	// request, or page-cache costs in mmap mode) — Fig 12's "I/O cost".
	IOOverhead simclock.Time
	// IOs is the number of block reads.
	IOs int64
	// CoalescedReads is how many of those reads were merged into another
	// request by vectored submission (ReadVec): the device still served
	// them, but the CPU never paid their T_request.
	CoalescedReads int64
	// FaultedReads is how many block reads failed at the store and were
	// served as zero blocks (degraded mode; the queries they belonged to
	// saw truncated chains, not errors).
	FaultedReads int64
	// Spans are per-query start-to-done durations.
	Spans []simclock.Time
	// Device aggregates pool statistics (observed IOPS, latency, usage).
	Device iosim.DeviceStats
	// DeviceUsage is mean die utilization over the makespan (Fig 15).
	DeviceUsage float64
}

// TimePerQuery is the throughput-derived per-query time, Makespan/Queries:
// the paper's "average processing time per query" under interleaving (§4.1).
func (r Report) TimePerQuery() simclock.Time {
	if r.Queries == 0 {
		return 0
	}
	return simclock.Time(int64(r.Makespan) / int64(r.Queries))
}

// QueriesPerSecond is the throughput in queries per virtual second (Fig 15).
func (r Report) QueriesPerSecond() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Makespan.Seconds()
}

// ObservedIOPS is the device-side observed random read rate (Fig 15).
func (r Report) ObservedIOPS() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.IOs) / r.Makespan.Seconds()
}

// RunBatch executes n queries with the given per-CPU interleaving depth
// (the number of in-flight query contexts per core, §5.4) and returns the
// run report. Queries are distributed round-robin across CPUs.
func (e *Engine) RunBatch(n, contextsPerCPU int, fn QueryFunc) (Report, error) {
	if n <= 0 {
		return Report{}, fmt.Errorf("sched: RunBatch needs positive query count, got %d", n)
	}
	if contextsPerCPU <= 0 {
		return Report{}, fmt.Errorf("sched: RunBatch needs positive context count, got %d", contextsPerCPU)
	}
	if e.queryFn != nil {
		return Report{}, fmt.Errorf("sched: engine already used; create a fresh engine per run")
	}
	e.queryFn = fn
	e.spans = make([]simclock.Time, n)
	e.starts = make([]simclock.Time, n)
	// Assign queries round-robin, start the first contextsPerCPU on each CPU.
	for qi := 0; qi < n; qi++ {
		cpu := qi % e.cfg.CPUs
		c := &e.cpus[cpu]
		if c.active < contextsPerCPU {
			e.startQuery(cpu, qi, 0)
		} else {
			c.pending = append(c.pending, qi)
		}
	}
	e.q.Run()
	if e.doneCount != n {
		return Report{}, fmt.Errorf("sched: %d of %d queries completed; a query never called done", e.doneCount, n)
	}
	makespan := e.lastDone
	for i := range e.cpus {
		if e.cpus[i].freeAt > makespan {
			makespan = e.cpus[i].freeAt
		}
	}
	return Report{
		Queries:        n,
		Makespan:       makespan,
		Compute:        e.compute,
		IOOverhead:     e.ioOverhead,
		IOs:            e.ios,
		CoalescedReads: e.coalesced,
		FaultedReads:   e.faults,
		Spans:          e.spans,
		Device:         e.cfg.Pool.Stats(),
		DeviceUsage:    e.cfg.Pool.Usage(makespan),
	}, nil
}
