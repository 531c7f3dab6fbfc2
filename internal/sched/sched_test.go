package sched

import (
	"math"
	"sync"
	"testing"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/iosim"
	"e2lshos/internal/pagecache"
	"e2lshos/internal/simclock"
)

// testStore builds a store with nBlocks written blocks.
func testStore(t *testing.T, nBlocks int) *blockstore.Store {
	t.Helper()
	s := blockstore.NewMem()
	for i := 0; i < nBlocks; i++ {
		a := s.Allocate()
		if err := s.WriteBlock(a, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// readOne reads one block as a one-address ReadVec, which charges one
// request's overhead and counts one I/O.
func readOne(tc *Ctx, a blockstore.Addr, cont func(block []byte)) {
	tc.ReadVec([]blockstore.Addr{a}, func(_ int, block []byte) { cont(block) })
}

func mustPool(t *testing.T, spec iosim.DeviceSpec, n int) *iosim.Pool {
	t.Helper()
	p, err := iosim.NewPool(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	pool := mustPool(t, iosim.CSSD, 1)
	store := blockstore.NewMem()
	bad := []Config{
		{CPUs: 0, Iface: iosim.IOUring, Pool: pool, Store: store},
		{CPUs: 1, Iface: iosim.IOUring, Pool: nil, Store: store},
		{CPUs: 1, Iface: iosim.IOUring, Pool: pool, Store: nil},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	cache, _ := pagecache.NewShared(10)
	if _, err := New(Config{CPUs: 1, Iface: iosim.IOUring, Pool: pool, Store: store, PageCache: cache}); err == nil {
		t.Error("page cache without Sync accepted")
	}
}

func TestComputeOnlyQuery(t *testing.T) {
	e := newEngine(t, Config{CPUs: 1, Iface: iosim.IOUring, Pool: mustPool(t, iosim.CSSD, 1), Store: testStore(t, 1)})
	rep, err := e.RunBatch(10, 4, func(q int, tc *Ctx, done func()) {
		tc.Charge(1000)
		done()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 10000 {
		t.Errorf("makespan %v, want 10000 (10 serialized 1us tasks)", rep.Makespan)
	}
	if rep.Compute != 10000 {
		t.Errorf("compute %v, want 10000", rep.Compute)
	}
	if rep.IOs != 0 || rep.IOOverhead != 0 {
		t.Error("compute-only run should have no I/O")
	}
}

func TestMultiCPUComputeScales(t *testing.T) {
	run := func(cpus int) simclock.Time {
		e := newEngine(t, Config{CPUs: cpus, Iface: iosim.IOUring, Pool: mustPool(t, iosim.XLFDD, 1), Store: testStore(t, 1)})
		rep, err := e.RunBatch(64, 8, func(q int, tc *Ctx, done func()) {
			tc.Charge(1000)
			done()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	t1, t8 := run(1), run(8)
	if t8*7 > t1*2 {
		t.Errorf("8 CPUs not ~8x faster: t1=%v t8=%v", t1, t8)
	}
}

func TestSyncMatchesEquation6(t *testing.T) {
	// T_sync = T_compute + N_IO * (T_request + T_read). One query, 4 reads,
	// idle device: each read completes in exactly the QD1 service time.
	store := testStore(t, 8)
	pool := mustPool(t, iosim.CSSD, 1)
	e := newEngine(t, Config{CPUs: 1, Iface: iosim.IOUring, Pool: pool, Store: store, Sync: true})
	const compute = 50_000
	var nIO int64 = 4
	rep, err := e.RunBatch(1, 1, func(q int, tc *Ctx, done func()) {
		tc.Charge(compute)
		var chain func(i int)
		chain = func(i int) {
			if int64(i) == nIO {
				done()
				return
			}
			readOne(tc, blockstore.Addr(i+1), func(block []byte) {
				chain(i + 1)
			})
		}
		chain(0)
		// done is called inside the innermost continuation (sync: inline).
	})
	if err != nil {
		t.Fatal(err)
	}
	want := simclock.Time(compute) + simclock.Time(nIO)*(iosim.IOUring.RequestOverhead+iosim.CSSD.ServiceTime)
	if rep.Makespan != want {
		t.Errorf("sync makespan %v, want %v (Eq 6)", rep.Makespan, want)
	}
	if rep.IOs != nIO {
		t.Errorf("IOs = %d, want %d", rep.IOs, nIO)
	}
}

func TestAsyncIOBoundMatchesEquation7(t *testing.T) {
	// Many interleaved queries, negligible compute: the makespan approaches
	// N_IO_total * T_read where 1/T_read is the saturated device IOPS.
	store := testStore(t, 256)
	pool := mustPool(t, iosim.CSSD, 1)
	e := newEngine(t, Config{CPUs: 1, Iface: iosim.SPDK, Pool: pool, Store: store})
	const queries = 512
	const iosPerQuery = 8
	rep, err := e.RunBatch(queries, 64, func(q int, tc *Ctx, done func()) {
		remaining := iosPerQuery
		for i := 0; i < iosPerQuery; i++ {
			readOne(tc, blockstore.Addr(1+(q*iosPerQuery+i)%256), func(block []byte) {
				remaining--
				if remaining == 0 {
					done()
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	totalIOs := float64(queries * iosPerQuery)
	wantSec := totalIOs / iosim.CSSD.MaxIOPS()
	got := rep.Makespan.Seconds()
	if math.Abs(got-wantSec)/wantSec > 0.15 {
		t.Errorf("async IO-bound makespan %.4fs, want ~%.4fs (Eq 7, IO term)", got, wantSec)
	}
	// The observed IOPS should be near the device's saturated rate.
	if iops := rep.ObservedIOPS(); iops < 0.8*iosim.CSSD.MaxIOPS() {
		t.Errorf("observed IOPS %.0f well below saturation %.0f", iops, iosim.CSSD.MaxIOPS())
	}
}

func TestAsyncCPUBoundMatchesEquation7(t *testing.T) {
	// With a slow interface (high T_request) and a fast device, the CPU term
	// T_compute + N_IO*T_request dominates (the Group 2 effect of Fig 11).
	store := testStore(t, 64)
	pool := mustPool(t, iosim.XLFDD, 8) // plenty of IOPS
	e := newEngine(t, Config{CPUs: 1, Iface: iosim.IOUring, Pool: pool, Store: store})
	const queries = 256
	const iosPerQuery = 16
	const computePerQuery = 2000
	rep, err := e.RunBatch(queries, 32, func(q int, tc *Ctx, done func()) {
		tc.Charge(computePerQuery)
		remaining := iosPerQuery
		for i := 0; i < iosPerQuery; i++ {
			readOne(tc, blockstore.Addr(1+(q+i)%64), func(block []byte) {
				remaining--
				if remaining == 0 {
					done()
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCPU := simclock.Time(queries * (computePerQuery + iosPerQuery*int(iosim.IOUring.RequestOverhead)))
	got := rep.Makespan
	if math.Abs(float64(got-wantCPU))/float64(wantCPU) > 0.15 {
		t.Errorf("async CPU-bound makespan %v, want ~%v (Eq 7, CPU term)", got, wantCPU)
	}
	if rep.IOOverhead != simclock.Time(queries*iosPerQuery)*iosim.IOUring.RequestOverhead {
		t.Errorf("IOOverhead = %v", rep.IOOverhead)
	}
}

func TestAsyncFasterThanSync(t *testing.T) {
	// The core claim: asynchronous execution hides storage latency.
	mk := func(sync bool) simclock.Time {
		store := testStore(t, 64)
		e := newEngine(t, Config{CPUs: 1, Iface: iosim.IOUring, Pool: mustPool(t, iosim.CSSD, 1), Store: store, Sync: sync})
		rep, err := e.RunBatch(64, 32, func(q int, tc *Ctx, done func()) {
			count := 4
			var chain func()
			chain = func() {
				count--
				if count == 0 {
					done()
					return
				}
				readOne(tc, blockstore.Addr(1+q%64), func(block []byte) { chain() })
			}
			readOne(tc, blockstore.Addr(1+q%64), func(block []byte) { chain() })
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	sync, async := mk(true), mk(false)
	if async*5 > sync {
		t.Errorf("async (%v) should be >5x faster than sync (%v) at QD32", async, sync)
	}
}

func TestInterleavingRaisesThroughput(t *testing.T) {
	run := func(contexts int) float64 {
		store := testStore(t, 64)
		e := newEngine(t, Config{CPUs: 1, Iface: iosim.SPDK, Pool: mustPool(t, iosim.CSSD, 1), Store: store})
		rep, err := e.RunBatch(256, contexts, func(q int, tc *Ctx, done func()) {
			readOne(tc, blockstore.Addr(1+q%64), func(block []byte) { done() })
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.QueriesPerSecond()
	}
	if qd1, qd32 := run(1), run(32); qd32 < 10*qd1 {
		t.Errorf("interleaving x32 should raise throughput >10x: %v vs %v", qd1, qd32)
	}
}

func TestPageCacheMode(t *testing.T) {
	store := testStore(t, 16)
	cache, _ := pagecache.NewShared(1000) // all blocks fit: 16 blocks = 1 page
	e := newEngine(t, Config{
		CPUs: 1, Iface: iosim.IOUring, Pool: mustPool(t, iosim.CSSD, 1), Store: store,
		Sync: true, PageCache: cache, PageFaultOverhead: 2000, CacheHitCost: 200,
	})
	rep, err := e.RunBatch(1, 1, func(q int, tc *Ctx, done func()) {
		// Two reads of the same block: first faults, second hits.
		readOne(tc, 1, func(b []byte) {
			readOne(tc, 1, func(b []byte) { done() })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := simclock.Time(2000) + iosim.CSSD.ServiceTime + 200
	if rep.Makespan != want {
		t.Errorf("page-cache makespan %v, want %v", rep.Makespan, want)
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", cache.Hits(), cache.Misses())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Report {
		store := testStore(t, 64)
		e := newEngine(t, Config{CPUs: 4, Iface: iosim.SPDK, Pool: mustPool(t, iosim.ESSD, 2), Store: store})
		rep, err := e.RunBatch(128, 8, func(q int, tc *Ctx, done func()) {
			tc.Charge(simclock.Time(100 * (q%7 + 1)))
			readOne(tc, blockstore.Addr(1+q%64), func(block []byte) {
				tc.Charge(500)
				done()
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if r1.Makespan != r2.Makespan || r1.Compute != r2.Compute || r1.IOs != r2.IOs {
		t.Errorf("nondeterministic runs: %+v vs %+v", r1, r2)
	}
	for i := range r1.Spans {
		if r1.Spans[i] != r2.Spans[i] {
			t.Fatal("per-query spans differ between runs")
		}
	}
}

func TestBlockDataDelivered(t *testing.T) {
	store := testStore(t, 8)
	e := newEngine(t, Config{CPUs: 1, Iface: iosim.IOUring, Pool: mustPool(t, iosim.XLFDD, 1), Store: store})
	var got []byte
	_, err := e.RunBatch(1, 1, func(q int, tc *Ctx, done func()) {
		readOne(tc, 5, func(block []byte) {
			got = append([]byte(nil), block[:4]...)
			done()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 { // block 5 was written with byte value 4
		t.Errorf("wrong block data: %v", got)
	}
}

func TestRunBatchValidation(t *testing.T) {
	e := newEngine(t, Config{CPUs: 1, Iface: iosim.IOUring, Pool: mustPool(t, iosim.CSSD, 1), Store: testStore(t, 1)})
	noop := func(q int, tc *Ctx, done func()) { done() }
	if _, err := e.RunBatch(0, 1, noop); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := e.RunBatch(1, 0, noop); err == nil {
		t.Error("zero contexts accepted")
	}
	if _, err := e.RunBatch(1, 1, noop); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunBatch(1, 1, noop); err == nil {
		t.Error("engine reuse accepted")
	}
}

func TestMissingDoneDetected(t *testing.T) {
	e := newEngine(t, Config{CPUs: 1, Iface: iosim.IOUring, Pool: mustPool(t, iosim.CSSD, 1), Store: testStore(t, 1)})
	if _, err := e.RunBatch(2, 2, func(q int, tc *Ctx, done func()) {
		if q == 0 {
			done()
		}
		// query 1 never completes
	}); err == nil {
		t.Error("missing done() not detected")
	}
}

func TestReportDerivedMetrics(t *testing.T) {
	r := Report{Queries: 10, Makespan: simclock.Second, IOs: 5000}
	if r.TimePerQuery() != simclock.Second/10 {
		t.Error("TimePerQuery wrong")
	}
	if r.QueriesPerSecond() != 10 {
		t.Error("QueriesPerSecond wrong")
	}
	if r.ObservedIOPS() != 5000 {
		t.Error("ObservedIOPS wrong")
	}
	empty := Report{}
	if empty.TimePerQuery() != 0 || empty.QueriesPerSecond() != 0 || empty.ObservedIOPS() != 0 {
		t.Error("empty report should report zeros")
	}
}

// TestSharedPageCacheAcrossEngines: one guarded page cache shared by two
// engines running concurrently — several simulated hosts faulting into one
// OS cache — must stay race-clean (Config requires pagecache.Shared, not
// the unsynchronized Cache) and lose no accesses.
func TestSharedPageCacheAcrossEngines(t *testing.T) {
	cache, err := pagecache.NewShared(8)
	if err != nil {
		t.Fatal(err)
	}
	const engines = 4
	const queries = 32
	var wg sync.WaitGroup
	errs := make(chan error, engines)
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Everything engine-local is built in the goroutine; only the
			// guarded cache is shared.
			pool, err := iosim.NewPool(iosim.CSSD, 1)
			if err != nil {
				errs <- err
				return
			}
			store := blockstore.NewMem()
			for b := 0; b < 64; b++ {
				a := store.Allocate()
				if err := store.WriteBlock(a, []byte{byte(b)}); err != nil {
					errs <- err
					return
				}
			}
			e, err := New(Config{
				CPUs: 1, Iface: iosim.IOUring, Pool: pool, Store: store,
				Sync: true, PageCache: cache,
				PageFaultOverhead: 2000, CacheHitCost: 200,
			})
			if err != nil {
				errs <- err
				return
			}
			if _, err := e.RunBatch(queries, 1, func(q int, tc *Ctx, done func()) {
				readOne(tc, blockstore.Addr(q%64+1), func(b []byte) { done() })
			}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if total := cache.Hits() + cache.Misses(); total != engines*queries {
		t.Errorf("cache saw %d accesses, want %d", total, engines*queries)
	}
}
