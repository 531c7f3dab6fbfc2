package blockstore

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"e2lshos/internal/offheap"
)

// mappedChunks counts the memory backends' chunks currently mapped outside
// the Go heap (always zero where offheap keeps slabs on the heap).
var mappedChunks atomic.Int64

// newChunk allocates one zeroed chunk through offheap: on unix a mapping
// outside the Go heap, so a large RAM store is not live heap and the
// collector neither scans it nor counts it toward the next heap goal.
func newChunk() ([]byte, error) {
	c, err := offheap.Alloc(chunkBlocks * BlockSize)
	if err != nil {
		return nil, fmt.Errorf("blockstore: chunk: %w", err)
	}
	if offheap.Mapped {
		mappedChunks.Add(1)
	}
	return c, nil
}

// unmapOnGC arranges for m's chunks to be unmapped once m is unreachable. It
// is called once, before m's first chunk is mapped. No slice of a chunk ever
// leaves m (reads and writes copy), and every method that touches a chunk
// releases m.mu after its copy, so m stays reachable while a copy runs. Heap
// chunks need no finalizer: the collector frees them with m.
func unmapOnGC(m *memBackend) {
	if !offheap.Mapped {
		return
	}
	runtime.SetFinalizer(m, func(m *memBackend) {
		//lsh:nolock a finalizer runs once nothing else can reach m
		for _, c := range m.chunks {
			if offheap.Free(c) == nil {
				mappedChunks.Add(-1)
			}
		}
	})
}

// OffHeapBytes reports the bytes of block storage currently held outside the
// Go heap by memory-backed stores (zero where chunks live on the heap).
func OffHeapBytes() int64 { return mappedChunks.Load() * chunkBlocks * BlockSize }
