//go:build unix && !race

package blockstore

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// fillBlock writes a pattern unique to address a into buf.
func fillBlock(buf []byte, a Addr) {
	for i := range buf {
		buf[i] = byte(uint64(a)*31 + uint64(i)*7 + uint64(i>>8))
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemChunksOffHeap: 32 MiB of blocks written to a memory backend leave
// the live Go heap within 1 MiB of where it was — the chunks are mapped
// outside it — and every block reads back bit for bit after a collection.
func TestMemChunksOffHeap(t *testing.T) {
	const blocks = 32 << 20 / BlockSize
	b := NewMemBackend()
	buf, got := make([]byte, BlockSize), make([]byte, BlockSize)
	before := liveHeap()
	for a := Addr(1); a <= blocks; a++ {
		fillBlock(buf, a)
		if err := b.WriteBlock(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	if grew := int64(after) - int64(before); grew >= 1<<20 {
		t.Errorf("writing 32 MiB of blocks grew the live heap by %d bytes, want under 1 MiB", grew)
	}
	for a := Addr(1); a <= blocks; a++ {
		fillBlock(buf, a)
		if err := b.ReadBlock(a, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("block %d differs after the collection", a)
		}
	}
}

// settledChunks collects until no finalizer changes the mapped-chunk count
// for a few rounds, and returns the count.
func settledChunks() int64 {
	prev, still := mappedChunks.Load(), 0
	for i := 0; i < 200 && still < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		cur := mappedChunks.Load()
		if cur == prev {
			still++
		} else {
			prev, still = cur, 0
		}
	}
	return prev
}

// TestDroppedStoreUnmapsChunks: a store nobody references has its chunks
// unmapped by the backend's finalizer once the collector finds it.
func TestDroppedStoreUnmapsChunks(t *testing.T) {
	base := settledChunks()
	func() {
		s := NewMem()
		data := make([]byte, BlockSize)
		s.AllocateRange(3 * chunkBlocks)
		for _, a := range []Addr{1, chunkBlocks, 2 * chunkBlocks} {
			if err := s.WriteBlock(a, data); err != nil {
				t.Fatal(err)
			}
		}
		if n := mappedChunks.Load() - base; n != 3 {
			t.Fatalf("three chunks written, %d mapped", n)
		}
		if got := OffHeapBytes(); got < 3*chunkBlocks*BlockSize {
			t.Errorf("OffHeapBytes = %d with three chunks mapped", got)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for mappedChunks.Load() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d chunks still mapped after the store was dropped", mappedChunks.Load()-base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
