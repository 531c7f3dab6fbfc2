// Package offheap hands out large, pointer-free byte slabs that live outside
// the Go heap where the platform allows: the RAM block store's chunks
// (internal/blockstore), the build's per-radius hash keys
// (internal/memindex) and the block cache's slab (internal/blockcache). Memory outside the heap is neither scanned by the
// collector nor counted toward its next goal, and Free returns it to the
// operating system at once instead of at the scavenger's pace.
//
// On unix without the race detector a slab is an anonymous private mapping
// (mmap.go). Elsewhere, and under the race detector, which only watches heap
// addresses and so would not see races on a mapped slab's contents, a slab is
// an ordinary heap allocation that Free leaves to the collector (heap.go).
// Callers keep one code path: they Free every slab they Alloc, on either side.
package offheap
