//go:build unix && !race

package offheap

import (
	"fmt"
	"syscall"
)

// Mapped reports whether Alloc maps slabs outside the Go heap in this build.
const Mapped = true

// Alloc maps n zeroed bytes of anonymous memory outside the Go heap. The
// slab is page aligned.
func Alloc(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("offheap: map %d bytes: %w", n, err)
	}
	return b, nil
}

// Free unmaps a slab from Alloc. Nothing may touch b, or any slice of it,
// afterwards: the addresses fault.
func Free(b []byte) error {
	if err := syscall.Munmap(b); err != nil {
		return fmt.Errorf("offheap: unmap %d bytes: %w", len(b), err)
	}
	return nil
}
