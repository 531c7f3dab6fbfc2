// Package blockstore provides the 512-byte block address space that holds
// the E2LSHoS hash index (§5.1). 512 bytes is the minimum read unit of a
// typical NVMe SSD and the paper's chosen block size.
//
// The store is a data plane only: reads and writes move bytes, never time.
// Virtual-time accounting for reads lives in internal/sched + internal/iosim;
// real-file deployments read blocks through the same interface with wall
// clocks. Address 0 is the nil address, so allocation starts at block 1.
//
// Backends expose two read shapes: ReadBlock for one block, and the vectored
// ReadBlocks, which both backends serve by coalescing runs of adjacent
// addresses into single physical operations (one pread on the file backend).
// The ioengine package builds its batched submission path on ReadBlocks.
package blockstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// BlockSize is the fixed block size in bytes.
const BlockSize = 512

// MaxCoalesce bounds how many adjacent blocks one physical operation may
// merge (32 KiB per pread at 512-byte blocks), so a single huge run cannot
// monopolize a device die. Every backend counts physical operations with the
// same bound, keeping CoalescedReads comparable across backends.
const MaxCoalesce = 64

// Addr addresses one block. 0 is Nil.
type Addr uint64

// Nil is the null block address.
const Nil Addr = 0

// Backend stores raw blocks. Backends must support concurrent readers and
// support ReadBlocks racing WriteBlock on disjoint addresses (the query
// paths read while background fills run).
type Backend interface {
	// ReadBlock copies block a into buf (len >= BlockSize).
	ReadBlock(a Addr, buf []byte) error
	// ReadBlocks copies block addrs[i] into bufs[i] for every i, coalescing
	// runs of adjacent addresses (addrs[i+1] == addrs[i]+1) into single
	// physical operations up to MaxCoalesce blocks each. It returns the
	// number of physical operations performed; len(addrs) minus that count
	// is the reads saved by coalescing.
	ReadBlocks(addrs []Addr, bufs [][]byte) (int, error)
	// WriteBlock stores data (len <= BlockSize; shorter data is zero-padded).
	WriteBlock(a Addr, data []byte) error
	// NumBlocks returns the number of blocks ever written plus one (the
	// exclusive upper bound of valid addresses).
	NumBlocks() uint64
}

// ReadBlocksSerial implements Backend.ReadBlocks for backends without a
// vectored fast path: one ReadBlock call per address, with adjacent runs
// counted as single physical operations so the coalescing statistics stay
// comparable with backends that really do merge the reads.
func ReadBlocksSerial(b Backend, addrs []Addr, bufs [][]byte) (int, error) {
	if len(addrs) != len(bufs) {
		return 0, fmt.Errorf("blockstore: %d addresses but %d buffers", len(addrs), len(bufs))
	}
	ops := 0
	for i := 0; i < len(addrs); i = NextRun(addrs, i) {
		ops++
	}
	for i, a := range addrs {
		if err := b.ReadBlock(a, bufs[i]); err != nil {
			return ops, err
		}
	}
	return ops, nil
}

// NextRun returns the exclusive end of the adjacent-address run starting at
// i, bounded by MaxCoalesce. It is THE coalescing rule: the backends, the
// I/O engine's run splitter and the simulator's request-charging all call
// it, so "one physical operation" means the same thing everywhere.
//
//lsh:hotpath
func NextRun(addrs []Addr, i int) int {
	j := i + 1
	for j < len(addrs) && addrs[j] == addrs[j-1]+1 && j-i < MaxCoalesce {
		j++
	}
	return j
}

// Store couples a backend with a bump allocator and the out-of-band block
// checksum table (see checksum.go): every block written through it is
// checksummed, and every read of such a block verified.
type Store struct {
	backend Backend
	next    Addr
	sums    sumTable
}

// NewMem returns a store backed by chunked in-memory slabs.
func NewMem() *Store {
	return &Store{backend: &memBackend{}, next: 1}
}

// NewMemBackend returns a fresh in-memory backend without a store, for
// callers that wrap the data plane (e.g. a latency-simulating backend)
// before handing it to NewWithBackend.
func NewMemBackend() Backend { return &memBackend{} }

// NewWithBackend wraps an existing backend, resuming allocation after its
// last block.
func NewWithBackend(b Backend) *Store {
	next := Addr(b.NumBlocks())
	if next < 1 {
		next = 1
	}
	return &Store{backend: b, next: next}
}

// Allocate reserves one block and returns its address.
func (s *Store) Allocate() Addr {
	a := s.next
	s.next++
	return a
}

// AllocateRange reserves n contiguous blocks and returns the first address.
// Hash table regions use it so an entry's block is base + entry/64.
func (s *Store) AllocateRange(n uint64) Addr {
	a := s.next
	s.next += Addr(n)
	return a
}

// NumBlocks returns the number of allocated blocks.
func (s *Store) NumBlocks() uint64 { return uint64(s.next) - 1 }

// Bytes returns the allocated size in bytes, the paper's "Index storage"
// metric (Table 6).
func (s *Store) Bytes() int64 { return int64(s.NumBlocks()) * BlockSize }

// ReadBlock reads block a into buf, verifying its recorded checksum (if
// any) before returning: a mismatch surfaces as *ErrCorrupt and the caller
// never sees the bad bytes as a success.
func (s *Store) ReadBlock(a Addr, buf []byte) error {
	if a == Nil || a >= s.next {
		return fmt.Errorf("blockstore: read of invalid address %d (allocated %d): %w", a, s.NumBlocks(), ErrInvalidAddr)
	}
	if err := s.backend.ReadBlock(a, buf); err != nil {
		return err
	}
	return s.sums.verify(a, buf)
}

// ReadBlocks reads block addrs[i] into bufs[i], delegating coalescing to the
// backend, and returns the number of physical operations performed.
func (s *Store) ReadBlocks(addrs []Addr, bufs [][]byte) (int, error) {
	if len(addrs) != len(bufs) {
		return 0, fmt.Errorf("blockstore: %d addresses but %d buffers", len(addrs), len(bufs))
	}
	for _, a := range addrs {
		if a == Nil || a >= s.next {
			return 0, fmt.Errorf("blockstore: vectored read of invalid address %d (allocated %d): %w", a, s.NumBlocks(), ErrInvalidAddr)
		}
	}
	ops, err := s.backend.ReadBlocks(addrs, bufs)
	if err != nil {
		return ops, err
	}
	// Verify every scattered-back block; the first mismatch wins, like the
	// backends' own first-error semantics.
	for i, a := range addrs {
		if err := s.sums.verify(a, bufs[i]); err != nil {
			return ops, err
		}
	}
	return ops, nil
}

// WriteBlock writes data to block a, which must be allocated, and records
// the block's checksum.
func (s *Store) WriteBlock(a Addr, data []byte) error {
	if a == Nil || a >= s.next {
		return fmt.Errorf("blockstore: write to invalid address %d (allocated %d): %w", a, s.NumBlocks(), ErrInvalidAddr)
	}
	if len(data) > BlockSize {
		return fmt.Errorf("blockstore: write of %d bytes exceeds block size", len(data))
	}
	if err := s.backend.WriteBlock(a, data); err != nil {
		return err
	}
	s.sums.record(a, Checksum(data))
	return nil
}

// memBackend stores blocks in fixed-size chunks to avoid one giant
// allocation and to grow smoothly. On unix the chunks are mapped outside the
// Go heap and unmapped once the backend is unreachable (chunk.go). The
// chunk table is guarded by an RWMutex so vectored reads may race writes to
// other blocks (writes to the same block as a concurrent read remain the
// caller's responsibility, as on a real device).
type memBackend struct {
	mu     sync.RWMutex
	chunks [][]byte //lsh:guardedby mu
	blocks uint64   //lsh:guardedby mu
}

// chunkBlocks is the number of blocks per chunk (2 MiB chunks).
const chunkBlocks = 4096

func (m *memBackend) locate(a Addr) (chunk, offset uint64) {
	i := uint64(a)
	return i / chunkBlocks, (i % chunkBlocks) * BlockSize
}

// ensureLocked grows the chunk table under a held write lock.
func (m *memBackend) ensureLocked(chunk uint64) error {
	for uint64(len(m.chunks)) <= chunk {
		c, err := newChunk()
		if err != nil {
			return err
		}
		if len(m.chunks) == 0 {
			unmapOnGC(m)
		}
		m.chunks = append(m.chunks, c)
	}
	return nil
}

func (m *memBackend) ReadBlock(a Addr, buf []byte) error {
	if len(buf) < BlockSize {
		return fmt.Errorf("blockstore: read buffer of %d bytes too small", len(buf))
	}
	m.mu.RLock()
	err := m.readLocked(a, buf)
	m.mu.RUnlock()
	return err
}

// readLocked copies one block under a held read lock.
func (m *memBackend) readLocked(a Addr, buf []byte) error {
	c, off := m.locate(a)
	if c >= uint64(len(m.chunks)) {
		// Allocated but never written: zero block.
		clear(buf[:BlockSize])
		return nil
	}
	copy(buf[:BlockSize], m.chunks[c][off:off+BlockSize])
	return nil
}

// ReadBlocks serves the vectored read op. The copies are per block, but runs
// of adjacent addresses are counted as one physical operation for parity
// with the file backend's pread coalescing.
func (m *memBackend) ReadBlocks(addrs []Addr, bufs [][]byte) (int, error) {
	if len(addrs) != len(bufs) {
		return 0, fmt.Errorf("blockstore: %d addresses but %d buffers", len(addrs), len(bufs))
	}
	for _, buf := range bufs {
		if len(buf) < BlockSize {
			return 0, fmt.Errorf("blockstore: read buffer of %d bytes too small", len(buf))
		}
	}
	ops := 0
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := 0; i < len(addrs); {
		j := NextRun(addrs, i)
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

func (m *memBackend) WriteBlock(a Addr, data []byte) error {
	c, off := m.locate(a)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.ensureLocked(c); err != nil {
		return err
	}
	dst := m.chunks[c][off : off+BlockSize]
	n := copy(dst, data)
	clear(dst[n:])
	if uint64(a) >= m.blocks {
		m.blocks = uint64(a) + 1
	}
	return nil
}

func (m *memBackend) NumBlocks() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.blocks
}

// readWriterAt is the slice of *os.File the file backend needs; tests swap
// in fault-injecting implementations.
type readWriterAt interface {
	io.ReaderAt
	io.WriterAt
}

// fileBackend stores blocks in a flat file at offset (addr-1)*BlockSize.
// ReadAt/WriteAt are positional syscalls, safe for concurrent use; the block
// high-water mark is atomic.
type fileBackend struct {
	f      readWriterAt
	blocks atomic.Uint64
}

// OpenFile returns a store backed by the named file, creating it if needed.
// An existing file resumes allocation after its last full block.
func OpenFile(path string) (*Store, *os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("blockstore: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("blockstore: stat %s: %w", path, err)
	}
	fb := &fileBackend{f: f}
	fb.blocks.Store(uint64(st.Size())/BlockSize + 1)
	return NewWithBackend(fb), f, nil
}

// readRange reads n adjacent blocks starting at a into buf (n*BlockSize
// bytes) with one positional read. Reads past the end of the file yield zero
// blocks (allocated but never written); any other failure is reported with
// the offending address range and byte counts, so a partial pread never
// surfaces as a bare byte-count mismatch.
func (fb *fileBackend) readRange(a Addr, n int, buf []byte) error {
	want := n * BlockSize
	off := int64(a-1) * BlockSize
	got, err := fb.f.ReadAt(buf[:want], off)
	if err == io.EOF {
		clear(buf[got:want])
		return nil
	}
	if err != nil || got < want {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		if n == 1 {
			return fmt.Errorf("blockstore: short read of block %d (offset %d): %d of %d bytes: %w",
				a, off, got, want, err)
		}
		return fmt.Errorf("blockstore: short read of blocks %d..%d (offset %d): %d of %d bytes: %w",
			a, a+Addr(n)-1, off, got, want, err)
	}
	return nil
}

func (fb *fileBackend) ReadBlock(a Addr, buf []byte) error {
	if len(buf) < BlockSize {
		return fmt.Errorf("blockstore: read buffer of %d bytes too small", len(buf))
	}
	return fb.readRange(a, 1, buf)
}

// runBufs holds the scratch a coalesced pread lands in: one run's worth of
// blocks (NextRun bounds a run at MaxCoalesce), reused across calls.
var runBufs = sync.Pool{New: func() any { return new([MaxCoalesce * BlockSize]byte) }}

// ReadBlocks coalesces runs of adjacent addresses into single preads,
// scattering the data back into the per-block buffers.
func (fb *fileBackend) ReadBlocks(addrs []Addr, bufs [][]byte) (int, error) {
	if len(addrs) != len(bufs) {
		return 0, fmt.Errorf("blockstore: %d addresses but %d buffers", len(addrs), len(bufs))
	}
	ops := 0
	var scratch *[MaxCoalesce * BlockSize]byte
	defer func() {
		if scratch != nil {
			runBufs.Put(scratch)
		}
	}()
	for i := 0; i < len(addrs); {
		j := NextRun(addrs, i)
		n := j - i
		if n == 1 {
			if err := fb.ReadBlock(addrs[i], bufs[i]); err != nil {
				return ops, err
			}
		} else {
			if scratch == nil {
				scratch = runBufs.Get().(*[MaxCoalesce * BlockSize]byte)
			}
			if err := fb.readRange(addrs[i], n, scratch[:n*BlockSize]); err != nil {
				return ops, err
			}
			for k := 0; k < n; k++ {
				if len(bufs[i+k]) < BlockSize {
					return ops, fmt.Errorf("blockstore: read buffer of %d bytes too small", len(bufs[i+k]))
				}
				copy(bufs[i+k][:BlockSize], scratch[k*BlockSize:(k+1)*BlockSize])
			}
		}
		ops++
		i = j
	}
	return ops, nil
}

func (fb *fileBackend) WriteBlock(a Addr, data []byte) error {
	var block [BlockSize]byte
	copy(block[:], data)
	off := int64(a-1) * BlockSize
	if n, err := fb.f.WriteAt(block[:], off); err != nil {
		return fmt.Errorf("blockstore: short write of block %d (offset %d): %d of %d bytes: %w",
			a, off, n, BlockSize, err)
	}
	for {
		cur := fb.blocks.Load()
		if uint64(a) < cur || fb.blocks.CompareAndSwap(cur, uint64(a)+1) {
			return nil
		}
	}
}

func (fb *fileBackend) NumBlocks() uint64 { return fb.blocks.Load() }

// imageSumsFlag is the format-version bit in the image header's 8-byte block
// count: set when every block carries a 4-byte CRC32C trailer. Block counts
// never approach 2^63, so the bit is free; images written before checksums
// existed have it clear and load exactly as before.
const imageSumsFlag = uint64(1) << 63

// WriteTo serializes the allocated blocks: an 8-byte block count with the
// imageSumsFlag bit set, followed by block contents, each followed by its
// 4-byte little-endian CRC32C. It lets a memory-built index be persisted and
// later served from a file backend. Blocks are re-verified against the
// checksum table as they stream out, so a rotten block cannot be laundered
// into a clean-looking image.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], s.NumBlocks()|imageSumsFlag)
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("blockstore: write header: %w", err)
	}
	written := int64(8)
	buf := make([]byte, BlockSize)
	var trailer [4]byte
	for a := Addr(1); a < s.next; a++ {
		if err := s.ReadBlock(a, buf); err != nil {
			return written, err
		}
		if _, err := bw.Write(buf); err != nil {
			return written, fmt.Errorf("blockstore: write block %d: %w", a, err)
		}
		written += BlockSize
		binary.LittleEndian.PutUint32(trailer[:], Checksum(buf))
		if _, err := bw.Write(trailer[:]); err != nil {
			return written, fmt.Errorf("blockstore: write block %d checksum: %w", a, err)
		}
		written += 4
	}
	return written, bw.Flush()
}

// ReadFrom restores a store serialized by WriteTo into the current backend.
// Checksummed images (imageSumsFlag set) are verified block by block as they
// stream in — a flipped bit anywhere in the image surfaces as *ErrCorrupt at
// load time, not as silently wrong neighbors at query time — and the
// trailers seed the in-memory checksum table. Pre-checksum images load
// unverified; their blocks get fresh checksums recorded as they are written
// through the store, so even old images are fully covered once restored.
func (s *Store) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("blockstore: read header: %w", err)
	}
	hdrCount := binary.LittleEndian.Uint64(hdr[:])
	withSums := hdrCount&imageSumsFlag != 0
	blocks := hdrCount &^ imageSumsFlag
	readBytes := int64(8)
	buf := make([]byte, BlockSize)
	var trailer [4]byte
	s.next = 1
	for i := uint64(0); i < blocks; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return readBytes, fmt.Errorf("blockstore: read block %d: %w", i+1, err)
		}
		readBytes += BlockSize
		a := s.Allocate()
		if withSums {
			if _, err := io.ReadFull(br, trailer[:]); err != nil {
				return readBytes, fmt.Errorf("blockstore: read block %d checksum: %w", i+1, err)
			}
			readBytes += 4
			want := binary.LittleEndian.Uint32(trailer[:])
			if got := Checksum(buf); got != want {
				return readBytes, &ErrCorrupt{Addr: a, Want: want, Got: got}
			}
		}
		// WriteBlock (not the bare backend) so the checksum table covers the
		// restored blocks.
		if err := s.WriteBlock(a, buf); err != nil {
			return readBytes, err
		}
	}
	return readBytes, nil
}
