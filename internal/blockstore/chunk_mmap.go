//go:build unix && !race

package blockstore

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
)

// mappedChunks counts the memory backends' chunks currently mapped.
var mappedChunks atomic.Int64

// newChunk maps one zeroed chunk from anonymous memory outside the Go heap,
// so a large RAM store is not live heap: the collector neither scans it nor
// counts it toward the next heap goal. Under the race detector, which only
// watches heap addresses, chunks stay on the heap (chunk_heap.go).
func newChunk() ([]byte, error) {
	c, err := syscall.Mmap(-1, 0, chunkBlocks*BlockSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("blockstore: map %d-byte chunk: %w", chunkBlocks*BlockSize, err)
	}
	mappedChunks.Add(1)
	return c, nil
}

// unmapOnGC arranges for m's chunks to be unmapped once m is unreachable. It
// is called once, before m's first chunk is mapped. No slice of a chunk ever
// leaves m (reads and writes copy), and every method that touches a chunk
// releases m.mu after its copy, so m stays reachable while a copy runs.
func unmapOnGC(m *memBackend) {
	runtime.SetFinalizer(m, func(m *memBackend) {
		//lsh:nolock a finalizer runs once nothing else can reach m
		for _, c := range m.chunks {
			if syscall.Munmap(c) == nil {
				mappedChunks.Add(-1)
			}
		}
	})
}

// OffHeapBytes reports the bytes of block storage currently held outside the
// Go heap by memory-backed stores (zero where chunks live on the heap).
func OffHeapBytes() int64 { return mappedChunks.Load() * chunkBlocks * BlockSize }
