//go:build !unix || race

package blockstore

// newChunk allocates one zeroed chunk on the Go heap: off unix, and under the
// race detector, which ignores non-heap addresses and so would not see races
// on block contents in mapped chunks (chunk_mmap.go).
func newChunk() ([]byte, error) { return make([]byte, chunkBlocks*BlockSize), nil }

// unmapOnGC has nothing to do: the collector frees heap chunks.
func unmapOnGC(*memBackend) {}

// OffHeapBytes reports the bytes of block storage currently held outside the
// Go heap by memory-backed stores: none in this build.
func OffHeapBytes() int64 { return 0 }
