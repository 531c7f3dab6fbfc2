package blockstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// Block checksums. Bucket blocks use 511 of their 512 bytes (16-byte header
// plus 99 packed 5-byte entries), so a checksum cannot live inside the block
// itself without shrinking every chain. Instead the Store keeps a CRC32C per
// written block out-of-band: WriteBlock records the checksum of the padded
// 512-byte image, and ReadBlock/ReadBlocks verify every block a backend
// hands back before the caller sees it. Blocks that were never written
// through this Store (an existing raw file opened with OpenFile, a restored
// pre-checksum image) carry no recorded sum and are served unverified, which
// is what keeps old images readable.
//
// CRC32C is the Castagnoli polynomial: hash/crc32 dispatches to the SSE4.2
// CRC32 instruction on amd64 (and the ARMv8 equivalent) with a table-driven
// portable fallback, so no new dependency is needed for hardware speed.

// castagnoli is the CRC32C table, built once.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zeroBlock extends short writes to the canonical 512-byte image when
// checksumming, mirroring the zero padding every backend applies.
var zeroBlock [BlockSize]byte

// Checksum returns the CRC32C of one block's canonical 512-byte image.
// Shorter data is checksummed as if zero-padded to BlockSize, matching what
// a backend stores for a short WriteBlock.
func Checksum(data []byte) uint32 {
	if len(data) > BlockSize {
		data = data[:BlockSize]
	}
	sum := crc32.Update(0, castagnoli, data)
	if len(data) < BlockSize {
		sum = crc32.Update(sum, castagnoli, zeroBlock[len(data):])
	}
	return sum
}

// ErrCorrupt reports a block whose content no longer matches its recorded
// CRC32C: silent corruption, distinct from transient I/O faults. It matches
// errors.Is against any other *ErrCorrupt, so callers classify with
// errors.Is(err, &ErrCorrupt{}) (or IsCorrupt) without caring which block.
type ErrCorrupt struct {
	Addr Addr
	Want uint32 // recorded checksum
	Got  uint32 // checksum of the bytes actually read
}

func (e *ErrCorrupt) Error() string {
	return fmt.Sprintf("blockstore: block %d corrupt: checksum %08x, want %08x", e.Addr, e.Got, e.Want)
}

// Is makes every *ErrCorrupt match every other under errors.Is, so the
// zero-value &ErrCorrupt{} works as a classification target.
func (e *ErrCorrupt) Is(target error) bool {
	_, ok := target.(*ErrCorrupt)
	return ok
}

// IsCorrupt reports whether err is (or wraps) a checksum mismatch.
func IsCorrupt(err error) bool {
	var ce *ErrCorrupt
	return errors.As(err, &ce)
}

// ErrInvalidAddr marks reads or writes outside the allocated address space:
// a program bug, never a storage fault, so retry layers must not retry it
// and degraded query paths must not swallow it.
var ErrInvalidAddr = errors.New("invalid block address")

// sumTable is the out-of-band checksum side table. Every verified read looks
// a block up, so lookups take no lock: each block's entry is one word (the
// CRC32C in the low 32 bits, sumRecorded once a sum was recorded), loaded
// atomically from fixed-size chunks that the directory publishes through an
// atomic pointer. A chunk never moves once published; growth copies only the
// directory of chunk pointers, under mu, so a concurrent lookup sees the old
// directory or the new one and reaches the same chunk through either.
type sumTable struct {
	mu  sync.Mutex // serializes growth of the directory
	dir atomic.Pointer[[]*sumChunk]
}

// sumChunkBlocks is how many blocks one chunk of the table covers (32 KiB
// of words).
const sumChunkBlocks = 1 << 12

// sumRecorded marks a word holding a recorded checksum.
const sumRecorded = uint64(1) << 32

type sumChunk [sumChunkBlocks]atomic.Uint64

// record stores the checksum for block a.
func (t *sumTable) record(a Addr, sum uint32) {
	t.word(a).Store(sumRecorded | uint64(sum))
}

// word returns block a's entry, growing the directory to cover it.
func (t *sumTable) word(a Addr) *atomic.Uint64 {
	ci, off := uint64(a)/sumChunkBlocks, uint64(a)%sumChunkBlocks
	if dir := t.dir.Load(); dir != nil && ci < uint64(len(*dir)) {
		return &(*dir)[ci][off]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var grown []*sumChunk
	if dir := t.dir.Load(); dir != nil {
		grown = *dir
	}
	if ci >= uint64(len(grown)) {
		grown = append(grown[:len(grown):len(grown)], make([]*sumChunk, ci+1-uint64(len(grown)))...)
		for i := range grown {
			if grown[i] == nil {
				grown[i] = new(sumChunk)
			}
		}
		t.dir.Store(&grown)
	}
	return &grown[ci][off]
}

// lookup returns the recorded checksum for block a, if any.
func (t *sumTable) lookup(a Addr) (uint32, bool) {
	dir := t.dir.Load()
	ci := uint64(a) / sumChunkBlocks
	if dir == nil || ci >= uint64(len(*dir)) {
		return 0, false
	}
	w := (*dir)[ci][uint64(a)%sumChunkBlocks].Load()
	return uint32(w), w&sumRecorded != 0
}

// verify checks buf against block a's recorded checksum. Blocks without a
// recorded sum (pre-checksum data) pass.
func (t *sumTable) verify(a Addr, buf []byte) error {
	want, ok := t.lookup(a)
	if !ok {
		return nil
	}
	if got := Checksum(buf[:BlockSize]); got != want {
		return &ErrCorrupt{Addr: a, Want: want, Got: got}
	}
	return nil
}

// ChecksummedBlocks returns how many blocks currently carry a recorded
// checksum (diagnostics; equals NumBlocks on a store whose every block was
// written through it).
func (s *Store) ChecksummedBlocks() uint64 {
	dir := s.sums.dir.Load()
	if dir == nil {
		return 0
	}
	n := uint64(0)
	for _, c := range *dir {
		for i := range c {
			if c[i].Load()&sumRecorded != 0 {
				n++
			}
		}
	}
	return n
}
