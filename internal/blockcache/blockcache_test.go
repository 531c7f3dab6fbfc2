package blockcache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"e2lshos/internal/blockstore"
)

// reader is the source readThrough falls through to on a miss.
type reader interface {
	ReadBlock(a blockstore.Addr, buf []byte) error
}

// cacher is what readThrough drives: the product Cache, or the test-only
// reference policy (reference_test.go).
type cacher interface {
	Get(a blockstore.Addr, buf []byte) bool
	Put(a blockstore.Addr, data []byte)
}

// readThrough is the cache-aside read the tests drive the cache with: serve
// from the cache when resident, otherwise read src and populate. It reports
// whether the read was a hit. (Production reads go through ioengine, which
// adds dedup in front of the same Get/Put pair.)
func readThrough(c cacher, src reader, a blockstore.Addr, buf []byte) (bool, error) {
	if c.Get(a, buf) {
		return true, nil
	}
	if err := src.ReadBlock(a, buf); err != nil {
		return false, err
	}
	c.Put(a, buf)
	return false, nil
}

// countingSource is a reader whose block contents are a function of the
// address, so every cached copy can be verified, and whose read count is the
// backend N_IO a cache is supposed to shrink.
type countingSource struct {
	reads atomic.Int64
	fail  map[blockstore.Addr]bool
}

func (s *countingSource) ReadBlock(a blockstore.Addr, buf []byte) error {
	s.reads.Add(1)
	if s.fail[a] {
		return fmt.Errorf("synthetic read failure at %d", a)
	}
	fill(a, buf)
	return nil
}

// fill writes the canonical content of block a.
func fill(a blockstore.Addr, buf []byte) {
	binary.LittleEndian.PutUint64(buf[:8], uint64(a)*0x0101010101010101)
	for i := 8; i < blockstore.BlockSize; i++ {
		buf[i] = byte(a) ^ byte(i)
	}
}

func checkBlock(t *testing.T, a blockstore.Addr, buf []byte) {
	t.Helper()
	var want [blockstore.BlockSize]byte
	fill(a, want[:])
	if string(buf[:blockstore.BlockSize]) != string(want[:]) {
		t.Fatalf("block %d content corrupted in cache", a)
	}
}

// TestReadThroughHitsAndMisses: the second read of an address is a hit, the
// backend sees exactly one read, and counters agree.
func TestReadThroughHitsAndMisses(t *testing.T) {
	c, err := New(64*blockstore.BlockSize, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{}
	buf := make([]byte, blockstore.BlockSize)
	for pass := 0; pass < 2; pass++ {
		for a := blockstore.Addr(1); a <= 16; a++ {
			hit, err := readThrough(c, src, a, buf)
			if err != nil {
				t.Fatal(err)
			}
			if want := pass == 1; hit != want {
				t.Fatalf("pass %d addr %d: hit=%v, want %v", pass, a, hit, want)
			}
			checkBlock(t, a, buf)
		}
	}
	if got := src.reads.Load(); got != 16 {
		t.Errorf("backend saw %d reads, want 16", got)
	}
	if c.Hits() != 16 || c.Misses() != 16 {
		t.Errorf("hits/misses = %d/%d, want 16/16", c.Hits(), c.Misses())
	}
	if mr := c.MissRate(); mr != 0.5 {
		t.Errorf("miss rate %v, want 0.5", mr)
	}
}

// TestTwoQScanResistance: a hot working set that has proven itself (touched,
// evicted from probation, re-referenced into main) survives one cold scan of
// many single-touch blocks, which a plain LRU of the same size does not.
func TestTwoQScanResistance(t *testing.T) {
	const capBlocks = 64
	hot := make([]blockstore.Addr, 8)
	for i := range hot {
		hot[i] = blockstore.Addr(i + 1)
	}
	warm := func(t *testing.T, c cacher, src *countingSource) {
		buf := make([]byte, blockstore.BlockSize)
		read := func(a blockstore.Addr) {
			if _, err := readThrough(c, src, a, buf); err != nil {
				t.Fatal(err)
			}
		}
		// First touch lands the hot set in probation; a probation's worth of
		// one-touch fillers evicts it into the ghost queue; the re-read then
		// proves re-reference and promotes it into the protected main LRU.
		for _, a := range hot {
			read(a)
		}
		for i := 0; i < capBlocks/4; i++ {
			read(blockstore.Addr(10_000 + i))
		}
		for _, a := range hot {
			read(a)
		}
	}
	scanThenCount := func(t *testing.T, c cacher, src *countingSource) int {
		buf := make([]byte, blockstore.BlockSize)
		for i := 0; i < 4*capBlocks; i++ { // one long cold sweep
			if _, err := readThrough(c, src, blockstore.Addr(100_000+i), buf); err != nil {
				t.Fatal(err)
			}
		}
		resident := 0
		for _, a := range hot {
			if c.Get(a, buf) {
				resident++
			}
		}
		return resident
	}

	twoQ, err := New(capBlocks*blockstore.BlockSize, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	lru := newRefCache(capBlocks, 1, true)
	src := &countingSource{}
	warm(t, twoQ, src)
	warm(t, lru, src)
	if got := scanThenCount(t, twoQ, src); got != len(hot) {
		t.Errorf("2Q kept %d/%d hot blocks through a scan, want all", got, len(hot))
	}
	if got := scanThenCount(t, lru, src); got != 0 {
		t.Errorf("plain LRU kept %d hot blocks through a scan; scan resistance test is vacuous", got)
	}
}

// TestInvalidate: a written block must not be served stale.
func TestInvalidate(t *testing.T) {
	c, err := New(16*blockstore.BlockSize, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{}
	buf := make([]byte, blockstore.BlockSize)
	if _, err := readThrough(c, src, 7, buf); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(7)
	if c.Get(7, buf) {
		t.Fatal("invalidated block still resident")
	}
	if _, err := readThrough(c, src, 7, buf); err != nil {
		t.Fatal(err)
	}
	if src.reads.Load() != 2 {
		t.Errorf("backend reads = %d, want 2 (one per miss)", src.reads.Load())
	}
}

// TestReadErrorNotCached: a failed backend read must not populate the cache.
func TestReadErrorNotCached(t *testing.T) {
	c, err := New(16*blockstore.BlockSize, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{fail: map[blockstore.Addr]bool{3: true}}
	buf := make([]byte, blockstore.BlockSize)
	if _, err := readThrough(c, src, 3, buf); err == nil {
		t.Fatal("expected read error")
	}
	delete(src.fail, 3)
	hit, err := readThrough(c, src, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("failed read was cached")
	}
	checkBlock(t, 3, buf)
}

// TestBadConfig: rejected capacities and shard counts.
func TestBadConfig(t *testing.T) {
	if _, err := New(100, Options{}); err == nil {
		t.Error("sub-block capacity accepted")
	}
	if _, err := New(1<<20, Options{Shards: 3}); err == nil {
		t.Error("non-power-of-two shard count accepted")
	}
	// A capacity smaller than the shard count collapses stripes instead of
	// failing.
	c, err := New(4*blockstore.BlockSize, Options{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if c.CapacityBlocks() < 4 {
		t.Errorf("capacity %d blocks, want at least 4", c.CapacityBlocks())
	}
}

// TestConcurrentReadThroughStress is the core race-mode property: many
// goroutines reading a working set far larger than a small cache must always
// see correct block contents, and the counters must add up.
func TestConcurrentReadThroughStress(t *testing.T) {
	c, err := New(32*blockstore.BlockSize, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{}
	const (
		goroutines = 8
		reads      = 2000
		space      = 256 // hot enough for real hits, big enough for eviction
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, blockstore.BlockSize)
			for i := 0; i < reads; i++ {
				a := blockstore.Addr(rng.Intn(space) + 1)
				if _, err := readThrough(c, src, a, buf); err != nil {
					t.Error(err)
					return
				}
				var want [8]byte
				binary.LittleEndian.PutUint64(want[:], uint64(a)*0x0101010101010101)
				if string(buf[:8]) != string(want[:]) {
					t.Errorf("goroutine %d: block %d served wrong content", g, a)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Hits() + c.Misses(); got != goroutines*reads {
		t.Errorf("hits+misses = %d, want %d", got, goroutines*reads)
	}
	if c.Misses() > src.reads.Load() || src.reads.Load() == 0 {
		t.Errorf("miss count %d vs backend reads %d inconsistent", c.Misses(), src.reads.Load())
	}
	if c.Hits() == 0 {
		t.Error("no hits on a skewed workload; cache inert")
	}
}

// TestSteadyStateZeroAllocs: once warm, hits, misses, inserts that evict
// (into probation, into main from a ghost, out to the ghost queue) and
// invalidations allocate nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	c, err := New(256*blockstore.BlockSize, Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockstore.BlockSize)
	next := blockstore.Addr(1)
	round := func() {
		for i := 0; i < 32; i++ {
			for _, a := range []blockstore.Addr{next%32 + 1, next%2048 + 100} {
				if !c.Get(a, buf) {
					c.Put(a, buf)
				}
			}
			c.Invalidate(next%2048/2 + 100)
			next++
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("a warm round of gets, puts and invalidations allocates %v times, want 0", got)
	}
	if c.Hits() == 0 || c.Misses() == 0 {
		t.Errorf("hits/misses = %d/%d: the round does not exercise both paths", c.Hits(), c.Misses())
	}
}
