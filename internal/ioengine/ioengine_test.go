package ioengine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/foldtest"
)

// slowSource is a Source with per-op latency and call counting, for
// dedup and depth tests.
type slowSource struct {
	store  *blockstore.Store
	delay  time.Duration
	reads  atomic.Int64 // logical blocks served
	ops    atomic.Int64 // physical operations
	active atomic.Int64
	maxIn  atomic.Int64
}

func (s *slowSource) enter() {
	in := s.active.Add(1)
	for {
		m := s.maxIn.Load()
		if in <= m || s.maxIn.CompareAndSwap(m, in) {
			break
		}
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
}

func (s *slowSource) exit() { s.active.Add(-1) }

func (s *slowSource) ReadBlock(a blockstore.Addr, buf []byte) error {
	s.enter()
	defer s.exit()
	s.reads.Add(1)
	s.ops.Add(1)
	return s.store.ReadBlock(a, buf)
}

func (s *slowSource) ReadBlocks(addrs []blockstore.Addr, bufs [][]byte) (int, error) {
	s.enter()
	defer s.exit()
	n, err := s.store.ReadBlocks(addrs, bufs)
	s.reads.Add(int64(len(addrs)))
	s.ops.Add(int64(n))
	return n, err
}

// testStore allocates n blocks whose first bytes encode their address.
func testStore(t testing.TB, n int) *blockstore.Store {
	t.Helper()
	st := blockstore.NewMem()
	data := make([]byte, blockstore.BlockSize)
	for i := 0; i < n; i++ {
		a := st.Allocate()
		data[0] = byte(a)
		data[1] = byte(a >> 8)
		if err := st.WriteBlock(a, data); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func checkBlock(t *testing.T, a blockstore.Addr, buf []byte) {
	t.Helper()
	if buf[0] != byte(a) || buf[1] != byte(a>>8) {
		t.Fatalf("block %d: got payload %d,%d", a, buf[0], buf[1])
	}
}

func TestNewValidation(t *testing.T) {
	st := testStore(t, 1)
	if _, err := New(nil, Options{Depth: 1}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := New(st, Options{Depth: 0}); err == nil {
		t.Error("zero depth accepted")
	}
	eng, err := New(st, Options{Depth: 7})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Depth() != 7 {
		t.Errorf("Depth = %d, want 7", eng.Depth())
	}
}

func TestReadBatchCoalescesAdjacentRuns(t *testing.T) {
	st := testStore(t, 200)
	src := &slowSource{store: st}
	eng, err := New(src, Options{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Two adjacent runs (10..14, 50..52) plus one singleton, shuffled.
	addrs := []blockstore.Addr{12, 50, 10, 99, 13, 51, 11, 52, 14}
	bufs := make([][]byte, len(addrs))
	for i := range bufs {
		bufs[i] = make([]byte, blockstore.BlockSize)
	}
	var bst BatchStats
	if err := eng.ReadBatch(context.Background(), addrs, bufs, &bst); err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		checkBlock(t, a, bufs[i])
	}
	if got, want := bst.PhysicalReads, 3; got != want {
		t.Errorf("PhysicalReads = %d, want %d (runs 10..14, 50..52, 99)", got, want)
	}
	if got, want := bst.CoalescedReads, len(addrs)-3; got != want {
		t.Errorf("CoalescedReads = %d, want %d", got, want)
	}
	if src.ops.Load() != 3 {
		t.Errorf("backend saw %d physical ops, want 3", src.ops.Load())
	}
	if c := eng.Counters(); c.Reads != int64(len(addrs)) {
		t.Errorf("Counters().Reads = %d, want %d", c.Reads, len(addrs))
	}
}

// blocking puts eng in the state blockingRun slow operations leave it in.
func blocking(eng *Engine) *Engine {
	eng.slow.Store(blockingRun)
	return eng
}

// TestReadBatchDuplicatesShareOneRead: duplicates within one wave cost one
// backend read per distinct block, on an instant source (the wave runs on
// its caller) and on a blocking one (the wave fans out to helpers), and
// every duplicate gets a copy of its block.
func TestReadBatchDuplicatesShareOneRead(t *testing.T) {
	for _, delay := range []time.Duration{0, 5 * time.Millisecond} {
		t.Run(fmt.Sprintf("delay=%v", delay), func(t *testing.T) {
			src := &slowSource{store: testStore(t, 10), delay: delay}
			eng, err := New(src, Options{Depth: 2})
			if err != nil {
				t.Fatal(err)
			}
			if delay > 0 {
				blocking(eng)
			}
			addrs := []blockstore.Addr{5, 7, 5, 5, 7}
			bufs := make([][]byte, len(addrs))
			for i := range bufs {
				bufs[i] = make([]byte, blockstore.BlockSize)
			}
			var bst BatchStats
			if err := eng.ReadBatch(context.Background(), addrs, bufs, &bst); err != nil {
				t.Fatal(err)
			}
			for i, a := range addrs {
				checkBlock(t, a, bufs[i])
			}
			if src.reads.Load() != 2 {
				t.Errorf("backend served %d blocks, want 2 (5 and 7 once each)", src.reads.Load())
			}
			if bst.DedupedReads != 3 || bst.PhysicalReads != 2 {
				t.Errorf("DedupedReads = %d, PhysicalReads = %d; want 3 and 2", bst.DedupedReads, bst.PhysicalReads)
			}
			// A blocking engine fans the wave out: the two reads overlap.
			if delay > 0 && src.maxIn.Load() != 2 {
				t.Errorf("the blocking wave had %d reads in flight, want 2 (fanned out)", src.maxIn.Load())
			}
		})
	}
}

func TestDepthBoundsBackendConcurrency(t *testing.T) {
	st := testStore(t, 128)
	src := &slowSource{store: st, delay: 2 * time.Millisecond}
	const depth = 3
	eng, err := New(src, Options{Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	// Widely spaced addresses: no coalescing, one op per block, fanned out
	// from many concurrent batches.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			addrs := make([]blockstore.Addr, 8)
			bufs := make([][]byte, 8)
			for i := range addrs {
				addrs[i] = blockstore.Addr(2*(8*w+i) + 1)
				bufs[i] = make([]byte, blockstore.BlockSize)
			}
			if err := eng.ReadBatch(context.Background(), addrs, bufs, nil); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if m := src.maxIn.Load(); m > depth {
		t.Errorf("backend saw %d concurrent ops, depth is %d", m, depth)
	}
}

// TestDepthReachedOnBlockingSource is the lower bound to the test above: a
// lone wave over a source that blocks is still overlapped to the engine's
// depth, although a wave over an instant source runs on its caller alone. A
// blocking engine fans a wave out from its first run. A new engine, and one
// that has only seen instant operations, is not blocking: it performs
// blockingRun runs in line, seeing each block, and overlaps the rest —
// Depth−blockingRun in flight — and the next wave is at full depth.
func TestDepthReachedOnBlockingSource(t *testing.T) {
	const depth, service = 16, 2 * time.Millisecond
	addrs := make([]blockstore.Addr, depth)
	bufs := make([][]byte, depth)
	for i := range addrs {
		addrs[i] = blockstore.Addr(2*i + 1) // non-adjacent: one operation per block
		bufs[i] = make([]byte, blockstore.BlockSize)
	}
	// wave times one lone ReadBatch and reports the overlap the source saw.
	wave := func(t *testing.T, eng *Engine, src *slowSource) (inFlight int64, took time.Duration) {
		t.Helper()
		src.maxIn.Store(0)
		start := time.Now()
		if err := eng.ReadBatch(context.Background(), addrs, bufs, nil); err != nil {
			t.Fatal(err)
		}
		took = time.Since(start)
		for i, a := range addrs {
			checkBlock(t, a, bufs[i])
		}
		return src.maxIn.Load(), took
	}
	// Wall-clock bounds on a shared machine: a scenario passes on its best
	// of three attempts.
	attempt := func(t *testing.T, scenario func(t *testing.T) string) {
		t.Helper()
		var complaint string
		for try := 0; try < 3; try++ {
			if complaint = scenario(t); complaint == "" {
				return
			}
		}
		t.Error(complaint)
	}
	// check wants wantInFlight operations overlapped, after inLine of them
	// ran one at a time.
	check := func(what string, inFlight, wantInFlight int64, inLine int, took time.Duration) string {
		bound := time.Duration(inLine+3) * service
		if inFlight < wantInFlight || took > bound {
			return fmt.Sprintf("%s: %d operations in flight in %v, want %d within %v",
				what, inFlight, took, wantInFlight, bound)
		}
		return ""
	}
	// tipped is a wave that finds the engine not blocking over a source
	// that blocks, then the wave after it.
	tipped := func(t *testing.T, eng *Engine, src *slowSource) string {
		inFlight, took := wave(t, eng, src)
		if c := check("the wave that finds the source blocking", inFlight, depth-blockingRun, blockingRun, took); c != "" {
			return c
		}
		inFlight, took = wave(t, eng, src)
		return check("the wave after it", inFlight, depth, 0, took)
	}
	t.Run("blocking engine", func(t *testing.T) {
		attempt(t, func(t *testing.T) string {
			src := &slowSource{store: testStore(t, 2*depth), delay: service}
			eng, err := New(src, Options{Depth: depth})
			if err != nil {
				t.Fatal(err)
			}
			inFlight, took := wave(t, blocking(eng), src)
			return check("a blocking engine's wave", inFlight, depth, 0, took)
		})
	})
	t.Run("first wave", func(t *testing.T) {
		attempt(t, func(t *testing.T) string {
			src := &slowSource{store: testStore(t, 2*depth), delay: service}
			eng, err := New(src, Options{Depth: depth})
			if err != nil {
				t.Fatal(err)
			}
			return tipped(t, eng, src)
		})
	})
	t.Run("after 100 waves on an instant source", func(t *testing.T) {
		attempt(t, func(t *testing.T) string {
			src := &slowSource{store: testStore(t, 2*depth)}
			eng, err := New(src, Options{Depth: depth})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				wave(t, eng, src)
			}
			src.delay = service
			return tipped(t, eng, src)
		})
	})
}

// TestBlockingSignal: a new engine is not blocking; a run of blockingRun
// timed operations over blockingOp makes it blocking, one fewer does not,
// and one timed operation under blockingOp ends the run, so slow operations
// scattered among fast ones never tip it. A wave times every operation;
// Read, while the engine is not blocking, one in timeEvery, and every one
// once it is. The Counters gauge follows.
func TestBlockingSignal(t *testing.T) {
	src := &slowSource{store: testStore(t, 4)}
	eng, err := New(src, Options{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockstore.BlockSize)
	defer func(op time.Duration) { blockingOp = op }(blockingOp)
	// pin makes every operation from here on count as slow or as fast by
	// moving blockingOp to the far side of it.
	pin := func(slow bool) {
		blockingOp = time.Hour
		if slow {
			blockingOp = -1
		}
	}
	// waves performs n one-block waves, each one timed operation.
	waves := func(n int, slow bool) {
		pin(slow)
		for range n {
			if err := eng.ReadBatch(context.Background(), []blockstore.Addr{1}, [][]byte{buf}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	reads := func(n int, slow bool) {
		pin(slow)
		for range n {
			if err := eng.Read(1, buf, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := func(what string, b bool) {
		t.Helper()
		if eng.Blocking() != b {
			t.Errorf("%s: Blocking() = %v, want %v", what, eng.Blocking(), b)
		}
		if g, w := eng.Counters().Blocking, map[bool]int64{true: 1}[b]; g != w {
			t.Errorf("%s: Counters().Blocking = %d, want %d", what, g, w)
		}
	}
	want("new engine", false)
	for range 10 {
		waves(blockingRun-1, true)
		waves(1, false)
	}
	want("runs of blockingRun-1 slow operations between fast ones", false)
	waves(blockingRun-1, true)
	want("blockingRun-1 slow operations", false)
	waves(1, true)
	want("blockingRun slow operations", true)
	waves(100, true)
	want("a longer run", true)
	waves(1, false)
	want("one fast operation", false)

	// On a new engine Read's timeEvery-th, 2·timeEvery-th, … reads are the
	// timed ones.
	if eng, err = New(src, Options{Depth: 4}); err != nil {
		t.Fatal(err)
	}
	reads(blockingRun*timeEvery-1, true)
	want("blockingRun·timeEvery-1 slow reads, blockingRun-1 of them timed", false)
	reads(1, true)
	want("blockingRun·timeEvery slow reads", true)
	reads(1, false)
	want("one fast read on a blocking engine, which times every read", false)
}

func TestCacheInteraction(t *testing.T) {
	st := testStore(t, 64)
	src := &slowSource{store: st}
	cache, err := blockcache.New(64*blockstore.BlockSize, blockcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(src, Options{Depth: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []blockstore.Addr{1, 2, 3, 4}
	bufs := make([][]byte, len(addrs))
	for i := range bufs {
		bufs[i] = make([]byte, blockstore.BlockSize)
	}
	var cold BatchStats
	if err := eng.ReadBatch(context.Background(), addrs, bufs, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.CacheMisses != 4 || cold.CacheHits != 0 {
		t.Errorf("cold batch: %d misses / %d hits, want 4/0", cold.CacheMisses, cold.CacheHits)
	}
	var warm BatchStats
	if err := eng.ReadBatch(context.Background(), addrs, bufs, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != 4 || warm.CacheMisses != 0 {
		t.Errorf("warm batch: %d hits / %d misses, want 4/0", warm.CacheHits, warm.CacheMisses)
	}
	if src.reads.Load() != 4 {
		t.Errorf("backend served %d reads, want 4 (fills cached)", src.reads.Load())
	}
	for i, a := range addrs {
		checkBlock(t, a, bufs[i])
	}
}

func TestReadBatchPropagatesErrors(t *testing.T) {
	st := testStore(t, 8)
	eng, err := New(st, Options{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []blockstore.Addr{1, 2, 1000} // 1000 unallocated
	bufs := make([][]byte, len(addrs))
	for i := range bufs {
		bufs[i] = make([]byte, blockstore.BlockSize)
	}
	if err := eng.ReadBatch(context.Background(), addrs, bufs, nil); err == nil {
		t.Error("invalid address in batch produced no error")
	}
	// A failed wave leaves the engine serving.
	if err := eng.Read(1, bufs[0], nil); err != nil {
		t.Fatalf("engine wedged after batch error: %v", err)
	}
}

func TestPrefetchWalksWarmCache(t *testing.T) {
	// A chain of blocks where each block's first 8 bytes name the next.
	st := blockstore.NewMem()
	const chainLen = 6
	addrs := make([]blockstore.Addr, chainLen)
	for i := range addrs {
		addrs[i] = st.Allocate()
	}
	data := make([]byte, blockstore.BlockSize)
	for i, a := range addrs {
		var next blockstore.Addr
		if i+1 < chainLen {
			next = addrs[i+1]
		}
		for b := 0; b < 8; b++ {
			data[b] = byte(uint64(next) >> (8 * b))
		}
		if err := st.WriteBlock(a, data); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := blockcache.New(64*blockstore.BlockSize, blockcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := &slowSource{store: st}
	eng, err := New(src, Options{Depth: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	decode := func(step int, block []byte) blockstore.Addr {
		var v uint64
		for b := 7; b >= 0; b-- {
			v = v<<8 | uint64(block[b])
		}
		return blockstore.Addr(v)
	}
	h := eng.Prefetch(context.Background(), []blockcache.Walk{
		{Start: addrs[0], Steps: chainLen, Next: decode},
	})
	if got := h.Wait(); got != chainLen {
		t.Errorf("prefetched %d blocks, want %d", got, chainLen)
	}
	if !h.Done() {
		t.Error("Done() false after Wait")
	}
	if cache.Prefetched() != chainLen {
		t.Errorf("cache prefetched counter = %d, want %d", cache.Prefetched(), chainLen)
	}
	if cache.Hits() != 0 || cache.Misses() != 0 {
		t.Error("prefetch skewed the demand hit/miss counters")
	}
	// Demand reads now all hit.
	var bst BatchStats
	buf := make([]byte, blockstore.BlockSize)
	for _, a := range addrs {
		if err := eng.Read(a, buf, &bst); err != nil {
			t.Fatal(err)
		}
	}
	if bst.CacheHits != chainLen || bst.CacheMisses != 0 {
		t.Errorf("after prefetch: %d hits / %d misses, want %d/0", bst.CacheHits, bst.CacheMisses, chainLen)
	}
	if src.reads.Load() != chainLen {
		t.Errorf("backend served %d reads, want %d (prefetch only)", src.reads.Load(), chainLen)
	}
}

func TestPrefetchCanceledStopsBetweenWaves(t *testing.T) {
	st := testStore(t, 32)
	cache, err := blockcache.New(64*blockstore.BlockSize, blockcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(st, Options{Depth: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := eng.Prefetch(ctx, []blockcache.Walk{{
		Start: 1, Steps: 10,
		Next: func(step int, block []byte) blockstore.Addr { return blockstore.Addr(step + 2) },
	}})
	if got := h.Wait(); got > 1 {
		t.Errorf("canceled prefetch still walked %d blocks", got)
	}
}

// TestPrefetchStepBoundAndEmpty: a walk never fetches more than Steps blocks
// even when its chain keeps going, and an empty walk set completes at once.
func TestPrefetchStepBoundAndEmpty(t *testing.T) {
	cache, err := blockcache.New(64*blockstore.BlockSize, blockcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(testStore(t, 32), Options{Depth: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	endless := func(step int, block []byte) blockstore.Addr { return blockstore.Addr(step + 2) }
	h := eng.Prefetch(context.Background(), []blockcache.Walk{{Start: 1, Steps: 3, Next: endless}})
	if got := h.Wait(); got != 3 {
		t.Errorf("fetched %d blocks, want the 3-step bound", got)
	}
	if h := eng.Prefetch(context.Background(), nil); h.Wait() != 0 || !h.Done() {
		t.Error("empty prefetch did not complete immediately")
	}
}

func TestConcurrentMixedTrafficRace(t *testing.T) {
	// Demand reads, batches and prefetches over one engine, under -race.
	st := testStore(t, 256)
	cache, err := blockcache.New(128*blockstore.BlockSize, blockcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(&slowSource{store: st}, Options{Depth: 8, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total BatchStats
	)
	fold := func(bst BatchStats) {
		mu.Lock()
		total.add(bst)
		mu.Unlock()
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var bst BatchStats
			defer func() { fold(bst) }()
			buf := make([]byte, blockstore.BlockSize)
			for i := 0; i < 50; i++ {
				a := blockstore.Addr(1 + (w*37+i*11)%256)
				if err := eng.Read(a, buf, &bst); err != nil {
					t.Error(err)
					return
				}
				checkBlock(t, a, buf)
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var bst BatchStats
			defer func() { fold(bst) }()
			addrs := make([]blockstore.Addr, 16)
			bufs := make([][]byte, 16)
			for i := range bufs {
				bufs[i] = make([]byte, blockstore.BlockSize)
			}
			for i := 0; i < 10; i++ {
				for j := range addrs {
					addrs[j] = blockstore.Addr(1 + (w*53+i*16+j)%256)
				}
				if err := eng.ReadBatch(context.Background(), addrs, bufs, &bst); err != nil {
					t.Error(err)
					return
				}
				for j, a := range addrs {
					checkBlock(t, a, bufs[j])
				}
			}
		}(w)
	}
	wg.Wait()
	reads := eng.Counters().Reads
	if reads != 6*(50+10*16) || total.PhysicalReads == 0 {
		t.Errorf("traffic: %d reads requested, per-call stats %+v", reads, total)
	}
	if int64(total.PhysicalReads+total.CoalescedReads) != int64(total.CacheMisses) {
		t.Errorf("%d physical + %d coalesced reads do not cover %d cache misses",
			total.PhysicalReads, total.CoalescedReads, total.CacheMisses)
	}
	if int64(total.CacheHits+total.CacheMisses) != reads {
		t.Errorf("%d hits + %d misses do not cover %d reads", total.CacheHits, total.CacheMisses, reads)
	}
}

func TestReadBatchLengthMismatch(t *testing.T) {
	st := testStore(t, 4)
	eng, err := New(st, Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ReadBatch(context.Background(), []blockstore.Addr{1, 2}, make([][]byte, 1), nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := eng.ReadBatch(context.Background(), nil, nil, nil); err != nil {
		t.Errorf("empty batch errored: %v", err)
	}
}

func TestBatchStatsString(t *testing.T) {
	// Folding into a nil stats pointer must be safe on every path.
	st := testStore(t, 70)
	eng, err := New(st, Options{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]blockstore.Addr, 64)
	bufs := make([][]byte, 64)
	for i := range addrs {
		addrs[i] = blockstore.Addr(i + 1)
		bufs[i] = make([]byte, blockstore.BlockSize)
	}
	if err := eng.ReadBatch(context.Background(), addrs, bufs, nil); err != nil {
		t.Fatal(err)
	}
	var bst BatchStats
	if err := eng.ReadBatch(context.Background(), addrs, bufs, &bst); err != nil {
		t.Fatal(err)
	}
	if s := fmt.Sprintf("%+v", bst); !bytes.Contains([]byte(s), []byte("CoalescedReads")) {
		t.Errorf("unexpected stats rendering: %s", s)
	}
}

// TestCounterFoldsEveryField: the three places this package copies a counter
// struct field by field — Counters.Add, BatchStats.add and the snapshot
// Engine.Counters takes of its atomics — lose no field.
func TestCounterFoldsEveryField(t *testing.T) {
	var c, csum Counters
	foldtest.Fill(&c)
	csum.Add(c)
	if csum != c {
		t.Errorf("zero.Add(filled) = %+v, want %+v", csum, c)
	}
	var b, bsum BatchStats
	foldtest.Fill(&b)
	bsum.add(b)
	if bsum != b {
		t.Errorf("zero.add(filled) = %+v, want %+v", bsum, b)
	}

	eng, err := New(testStore(t, 4), Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range []*atomic.Int64{
		&eng.reads, &eng.retried, &eng.faulted, &eng.quarHits,
	} {
		a.Store(int64(i + 1))
	}
	eng.quar.add(1, errors.New("dead block"))
	blocking(eng)
	if zero := foldtest.ZeroFields(eng.Counters()); len(zero) > 0 {
		t.Errorf("Engine.Counters() left %v unset", zero)
	}
}

// TestAllMissWaveZeroAllocs is the engine's allocation gate: once its arenas
// are warm, a wave in which every block is a miss — misses sorted, runs
// split, every block read and filled — allocates nothing on a
// memory source. With a cache attached the wave allocates exactly what
// filling the cache with its blocks allocates (blockcache.Put builds an entry
// per new block), and nothing of its own.
func TestAllMissWaveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops arenas at random under the race detector")
	}
	// 30 lone blocks and one adjacent pair: both backend call shapes.
	addrs := make([]blockstore.Addr, 0, 32)
	for i := 0; i < 30; i++ {
		addrs = append(addrs, blockstore.Addr(2*i+1))
	}
	addrs = append(addrs, 100, 101)
	bufs := make([][]byte, len(addrs))
	for i := range bufs {
		bufs[i] = make([]byte, blockstore.BlockSize)
	}
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			opts := Options{Depth: 16}
			fill := func() {}
			if cached {
				cache, err := blockcache.New(256*blockstore.BlockSize, blockcache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				opts.Cache = cache
				fill = func() {
					for i, a := range addrs {
						cache.Invalidate(a)
						cache.Put(a, bufs[i])
					}
				}
			}
			eng, err := New(testStore(t, 128), opts)
			if err != nil {
				t.Fatal(err)
			}
			var bst BatchStats
			wave := func() {
				for _, a := range addrs {
					if cached {
						opts.Cache.Invalidate(a)
					}
				}
				bst = BatchStats{}
				if err := eng.ReadBatch(context.Background(), addrs, bufs, &bst); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ { // warm-up: the arena
				wave()
			}
			// The measured waves run in line. Memory reads preempted past
			// blockingOp would make the engine blocking, and the helpers it
			// then starts allocate: that is the blocking path's cost, not
			// this gate's subject.
			defer func(op time.Duration) { blockingOp = op }(blockingOp)
			blockingOp = time.Hour
			want := testing.AllocsPerRun(100, fill)
			if got := testing.AllocsPerRun(100, wave); got != want {
				t.Errorf("a warmed all-miss wave of %d blocks allocates %v times, want %v (the cache fills alone)",
					len(addrs), got, want)
			}
			if bst.PhysicalReads != 31 || bst.CoalescedReads != 1 {
				t.Errorf("measured wave was not all-miss: %+v", bst)
			}
			for i, a := range addrs {
				checkBlock(t, a, bufs[i])
			}
		})
	}
}

// TestPrefetchAllocatesAConstant: the walk states and their block buffers
// come out of the engine's pool, so a readahead round costs the same few
// allocations (the handle, its goroutine) whether it walks 4 chains or 64.
func TestPrefetchAllocatesAConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops arenas at random under the race detector")
	}
	cache, err := blockcache.New(4096*blockstore.BlockSize, blockcache.Options{}) // every shard holds its share of 128
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(testStore(t, 200), Options{Depth: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	next := func(step int, block []byte) blockstore.Addr { return blockstore.Addr(block[0]) + 64 }
	round := func(walks []blockcache.Walk) func() {
		return func() { eng.Prefetch(context.Background(), walks).Wait() }
	}
	walks := make([]blockcache.Walk, 64)
	for i := range walks {
		walks[i] = blockcache.Walk{Start: blockstore.Addr(i + 1), Steps: 2, Next: next}
	}
	round(walks)() // warm-up: fills the cache, sizes the arena
	if got := cache.Prefetched(); got != 128 {
		t.Fatalf("warm-up prefetched %d blocks, want 128", got)
	}
	few, many := testing.AllocsPerRun(50, round(walks[:4])), testing.AllocsPerRun(50, round(walks))
	if many != few {
		t.Errorf("Prefetch allocates %v times for 64 walks but %v for 4", many, few)
	}
}
