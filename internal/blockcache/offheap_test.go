//go:build unix && !race

package blockcache

import (
	"runtime"
	"testing"
	"time"

	"e2lshos/internal/blockstore"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCacheOffHeap: 8 MiB of blocks put twice into a 16 MiB cache, so that
// they leave probation for the main LRU and all stay resident, leave the live
// Go heap within 256 KiB of where it was — the slab is mapped outside it —
// every block reads back bit for bit after a collection, and a cache nobody
// references has its slab unmapped once the collector finds it.
func TestCacheOffHeap(t *testing.T) {
	const blocks = 8 << 20 / blockstore.BlockSize
	base := mappedBytes.Load()
	func() {
		c, err := New(16<<20, Options{})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, blockstore.BlockSize)
		before := liveHeap()
		for pass := 0; pass < 2; pass++ {
			for a := blockstore.Addr(1); a <= blocks; a++ {
				fill(a, buf)
				c.Put(a, buf)
			}
		}
		grew := int64(liveHeap()) - int64(before)
		t.Logf("%d blocks resident; live heap grew by %d bytes", c.Len(), grew)
		if grew >= 256<<10 {
			t.Errorf("putting 8 MiB of blocks grew the live heap by %d bytes, want under 256 KiB", grew)
		}
		if c.Len() != blocks {
			t.Errorf("%d blocks resident after putting %d twice", c.Len(), blocks)
		}
		resident := 0
		for a := blockstore.Addr(1); a <= blocks; a++ {
			if c.Get(a, buf) {
				checkBlock(t, a, buf)
				resident++
			}
		}
		if resident != c.Len() {
			t.Errorf("%d blocks served of %d resident", resident, c.Len())
		}
		if mappedBytes.Load()-base < 16<<20 {
			t.Errorf("%d bytes mapped for a 16 MiB cache", mappedBytes.Load()-base)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for mappedBytes.Load() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still mapped after the cache was dropped", mappedBytes.Load()-base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
