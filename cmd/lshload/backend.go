package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"e2lshos/internal/blockstore"
)

// The benchmark's own block backends. The facade's constructors all build on
// a RAM slab today, so the only way to put an index on a real file through
// the public API is WithStorageBackend with a backend supplied from here.

// fileBackend stores blocks in a flat file at offset (addr-1)*BlockSize with
// positional reads and writes. Runs of adjacent addresses coalesce into one
// pread by blockstore.NextRun, the product's coalescing rule, so physical-op
// counts compare with the product's own backends.
type fileBackend struct {
	f      *os.File
	blocks atomic.Uint64
}

func newFileBackend(path string) (*fileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("file backend: %w", err)
	}
	fb := &fileBackend{f: f}
	fb.blocks.Store(1)
	return fb, nil
}

func (fb *fileBackend) Close() error { return fb.f.Close() }

// readRange reads n adjacent blocks at a with one pread. Bytes past the end
// of the file read as zero: the block was allocated but never written.
func (fb *fileBackend) readRange(a blockstore.Addr, n int, buf []byte) error {
	if a == blockstore.Nil {
		return fmt.Errorf("file backend: read of nil address")
	}
	want := n * blockstore.BlockSize
	off := int64(a-1) * blockstore.BlockSize
	got, err := fb.f.ReadAt(buf[:want], off)
	if err == io.EOF {
		clear(buf[got:want])
		return nil
	}
	if err != nil {
		return fmt.Errorf("file backend: read of blocks %d..%d (offset %d): %d of %d bytes: %w",
			a, a+blockstore.Addr(n)-1, off, got, want, err)
	}
	return nil
}

func (fb *fileBackend) ReadBlock(a blockstore.Addr, buf []byte) error {
	if len(buf) < blockstore.BlockSize {
		return fmt.Errorf("file backend: read buffer of %d bytes too small", len(buf))
	}
	return fb.readRange(a, 1, buf)
}

func (fb *fileBackend) ReadBlocks(addrs []blockstore.Addr, bufs [][]byte) (int, error) {
	if len(addrs) != len(bufs) {
		return 0, fmt.Errorf("file backend: %d addresses but %d buffers", len(addrs), len(bufs))
	}
	ops := 0
	var scratch []byte
	for i := 0; i < len(addrs); {
		j := blockstore.NextRun(addrs, i)
		n := j - i
		for k := i; k < j; k++ {
			if len(bufs[k]) < blockstore.BlockSize {
				return ops, fmt.Errorf("file backend: read buffer of %d bytes too small", len(bufs[k]))
			}
		}
		if n == 1 {
			if err := fb.readRange(addrs[i], 1, bufs[i]); err != nil {
				return ops, err
			}
		} else {
			if cap(scratch) < n*blockstore.BlockSize {
				scratch = make([]byte, n*blockstore.BlockSize)
			}
			if err := fb.readRange(addrs[i], n, scratch); err != nil {
				return ops, err
			}
			for k := 0; k < n; k++ {
				copy(bufs[i+k][:blockstore.BlockSize], scratch[k*blockstore.BlockSize:])
			}
		}
		ops++
		i = j
	}
	return ops, nil
}

func (fb *fileBackend) WriteBlock(a blockstore.Addr, data []byte) error {
	if a == blockstore.Nil {
		return fmt.Errorf("file backend: write to nil address")
	}
	if len(data) > blockstore.BlockSize {
		return fmt.Errorf("file backend: write of %d bytes exceeds the block size", len(data))
	}
	var block [blockstore.BlockSize]byte
	copy(block[:], data)
	if _, err := fb.f.WriteAt(block[:], int64(a-1)*blockstore.BlockSize); err != nil {
		return fmt.Errorf("file backend: write of block %d: %w", a, err)
	}
	for {
		cur := fb.blocks.Load()
		if uint64(a) < cur || fb.blocks.CompareAndSwap(cur, uint64(a)+1) {
			return nil
		}
	}
}

func (fb *fileBackend) NumBlocks() uint64 { return fb.blocks.Load() }

// memBackend is a RAM slab in fixed chunks: what the shipped lshserve serves
// from today, rebuilt here so the traced in-process run (which must supply
// its own backend to see the reads) keeps store=mem.
type memBackend struct {
	mu     sync.RWMutex
	chunks [][]byte
	blocks uint64
}

const memChunkBlocks = 4096

func (m *memBackend) slot(a blockstore.Addr) (chunk, off int) {
	i := uint64(a - 1)
	return int(i / memChunkBlocks), int(i%memChunkBlocks) * blockstore.BlockSize
}

func (m *memBackend) readLocked(a blockstore.Addr, buf []byte) error {
	if a == blockstore.Nil {
		return fmt.Errorf("mem backend: read of nil address")
	}
	if len(buf) < blockstore.BlockSize {
		return fmt.Errorf("mem backend: read buffer of %d bytes too small", len(buf))
	}
	c, off := m.slot(a)
	if c >= len(m.chunks) || m.chunks[c] == nil {
		clear(buf[:blockstore.BlockSize])
		return nil
	}
	copy(buf[:blockstore.BlockSize], m.chunks[c][off:])
	return nil
}

func (m *memBackend) ReadBlock(a blockstore.Addr, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.readLocked(a, buf)
}

func (m *memBackend) ReadBlocks(addrs []blockstore.Addr, bufs [][]byte) (int, error) {
	if len(addrs) != len(bufs) {
		return 0, fmt.Errorf("mem backend: %d addresses but %d buffers", len(addrs), len(bufs))
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	ops := 0
	for i := 0; i < len(addrs); {
		j := blockstore.NextRun(addrs, i)
		for k := i; k < j; k++ {
			if err := m.readLocked(addrs[k], bufs[k]); err != nil {
				return ops, err
			}
		}
		ops++
		i = j
	}
	return ops, nil
}

func (m *memBackend) WriteBlock(a blockstore.Addr, data []byte) error {
	if a == blockstore.Nil {
		return fmt.Errorf("mem backend: write to nil address")
	}
	if len(data) > blockstore.BlockSize {
		return fmt.Errorf("mem backend: write of %d bytes exceeds the block size", len(data))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, off := m.slot(a)
	for c >= len(m.chunks) {
		m.chunks = append(m.chunks, nil)
	}
	if m.chunks[c] == nil {
		m.chunks[c] = make([]byte, memChunkBlocks*blockstore.BlockSize)
	}
	dst := m.chunks[c][off : off+blockstore.BlockSize]
	clear(dst[copy(dst, data):])
	if uint64(a)+1 > m.blocks {
		m.blocks = uint64(a) + 1
	}
	return nil
}

func (m *memBackend) NumBlocks() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.blocks == 0 {
		return 1
	}
	return m.blocks
}

// opSpan is one backend read as the traced run records it.
type opSpan struct {
	Start, End int64 // ns since the recorder's epoch
	Parent     int32 // span the read ran under (0 = none in flight: prefetch)
	Blocks     int32
}

// countingBackend counts every read that reaches the inner backend — ops and
// blocks, always — and, while its recorder is on, also records each read as a
// span. It is the only place the benchmark observes storage traffic, and it
// sits outside the product.
type countingBackend struct {
	inner blockstore.Backend

	ops    atomic.Int64
	blocks atomic.Int64

	// rec and parent are fixed at construction; nil rec never traces.
	rec    *recorder
	parent *atomic.Int32 // current span of the layer above this backend
	mu     sync.Mutex
	spans  []opSpan
}

// span starts timing one read of the given size if the recorder is on; the
// returned func ends it.
func (c *countingBackend) span(blocks int) func() {
	if c.rec == nil || !c.rec.on.Load() {
		return func() {}
	}
	sp := opSpan{Start: c.rec.now(), Parent: c.parent.Load(), Blocks: int32(blocks)}
	return func() {
		sp.End = c.rec.now()
		c.mu.Lock()
		c.spans = append(c.spans, sp)
		c.mu.Unlock()
	}
}

func (c *countingBackend) ReadBlock(a blockstore.Addr, buf []byte) error {
	done := c.span(1)
	err := c.inner.ReadBlock(a, buf)
	done()
	c.ops.Add(1)
	c.blocks.Add(1)
	return err
}

func (c *countingBackend) ReadBlocks(addrs []blockstore.Addr, bufs [][]byte) (int, error) {
	done := c.span(len(addrs))
	ops, err := c.inner.ReadBlocks(addrs, bufs)
	done()
	c.ops.Add(int64(ops))
	c.blocks.Add(int64(len(addrs)))
	return ops, err
}

// takeSpans returns the reads recorded so far and forgets them.
func (c *countingBackend) takeSpans() []opSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.spans
	c.spans = nil
	return out
}

func (c *countingBackend) WriteBlock(a blockstore.Addr, data []byte) error {
	return c.inner.WriteBlock(a, data)
}

func (c *countingBackend) NumBlocks() uint64 { return c.inner.NumBlocks() }

// counts returns the cumulative physical operations and blocks read.
func (c *countingBackend) counts() (ops, blocks int64) { return c.ops.Load(), c.blocks.Load() }
