//go:build !unix || race

package offheap

import "unsafe"

// Mapped reports whether Alloc maps slabs outside the Go heap in this build.
const Mapped = false

// Alloc allocates n zeroed bytes on the Go heap, 8-byte aligned so a caller
// may view the slab as wider words, as it may a mapped one.
func Alloc(n int) ([]byte, error) {
	w := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), n), nil
}

// Free has nothing to do: the collector frees the slab once it is dropped.
func Free([]byte) error { return nil }
