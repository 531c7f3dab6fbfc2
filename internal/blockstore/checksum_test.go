package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// flipBackend corrupts the stored bytes of chosen blocks after the write,
// modeling bit rot under the checksum layer.
type flipBackend struct {
	Backend
	flip map[Addr]int // block -> bit index to flip on read-back
}

func (f *flipBackend) ReadBlock(a Addr, buf []byte) error {
	if err := f.Backend.ReadBlock(a, buf); err != nil {
		return err
	}
	if bit, ok := f.flip[a]; ok {
		buf[bit/8%BlockSize] ^= 1 << (bit % 8)
	}
	return nil
}

func (f *flipBackend) ReadBlocks(addrs []Addr, bufs [][]byte) (int, error) {
	return ReadBlocksSerial(f, addrs, bufs)
}

func TestChecksumDetectsBitRot(t *testing.T) {
	fb := &flipBackend{Backend: NewMemBackend(), flip: map[Addr]int{}}
	s := NewWithBackend(fb)
	a := s.Allocate()
	b := s.Allocate()
	if err := s.WriteBlock(a, []byte("clean block")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(b, []byte("rotten block")); err != nil {
		t.Fatal(err)
	}
	fb.flip[b] = 137

	buf := make([]byte, BlockSize)
	if err := s.ReadBlock(a, buf); err != nil {
		t.Fatalf("clean block: %v", err)
	}
	err := s.ReadBlock(b, buf)
	if err == nil {
		t.Fatal("corrupt block read succeeded")
	}
	var ce *ErrCorrupt
	if !errors.As(err, &ce) {
		t.Fatalf("want *ErrCorrupt, got %T: %v", err, err)
	}
	if ce.Addr != b {
		t.Errorf("ErrCorrupt.Addr = %d, want %d", ce.Addr, b)
	}
	if ce.Want == ce.Got {
		t.Error("ErrCorrupt carries identical want/got checksums")
	}
	if !errors.Is(err, &ErrCorrupt{}) {
		t.Error("errors.Is(err, &ErrCorrupt{}) = false")
	}
	if !IsCorrupt(err) {
		t.Error("IsCorrupt = false")
	}
	if IsCorrupt(ErrInvalidAddr) {
		t.Error("IsCorrupt(ErrInvalidAddr) = true")
	}

	// The vectored path must catch the same rot.
	addrs := []Addr{a, b}
	bufs := [][]byte{make([]byte, BlockSize), make([]byte, BlockSize)}
	if _, err := s.ReadBlocks(addrs, bufs); !IsCorrupt(err) {
		t.Fatalf("ReadBlocks over corrupt block: %v", err)
	}

	// Overwriting the block re-records the checksum over the new content.
	fresh := []byte("rewritten")
	if err := s.WriteBlock(b, fresh); err != nil {
		t.Fatal(err)
	}
	delete(fb.flip, b)
	if err := s.ReadBlock(b, buf); err != nil {
		t.Fatalf("rewritten block: %v", err)
	}
	if !bytes.Equal(buf[:len(fresh)], fresh) {
		t.Error("rewritten block content mismatch")
	}
}

// TestChecksumOldDataReadable covers the compatibility contract: blocks that
// predate the checksum table (an existing raw file, a backend filled outside
// the store) read back fine because no sum is recorded for them.
func TestChecksumOldDataReadable(t *testing.T) {
	mb := NewMemBackend()
	if err := mb.WriteBlock(1, []byte("pre-checksum block")); err != nil {
		t.Fatal(err)
	}
	s := NewWithBackend(mb)
	buf := make([]byte, BlockSize)
	if err := s.ReadBlock(1, buf); err != nil {
		t.Fatalf("pre-checksum block: %v", err)
	}
	if s.ChecksummedBlocks() != 0 {
		t.Errorf("ChecksummedBlocks = %d, want 0", s.ChecksummedBlocks())
	}
	// Writing through the store starts covering the block.
	a := s.Allocate()
	if err := s.WriteBlock(a, []byte("covered")); err != nil {
		t.Fatal(err)
	}
	if s.ChecksummedBlocks() != 1 {
		t.Errorf("ChecksummedBlocks = %d, want 1", s.ChecksummedBlocks())
	}
}

func TestImageRoundTripChecksummed(t *testing.T) {
	s := NewMem()
	for i := 0; i < 20; i++ {
		a := s.Allocate()
		if err := s.WriteBlock(a, []byte{byte(i), byte(i * 3)}); err != nil {
			t.Fatal(err)
		}
	}
	var img bytes.Buffer
	if _, err := s.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	wantLen := 8 + 20*(BlockSize+4)
	if img.Len() != wantLen {
		t.Fatalf("checksummed image is %d bytes, want %d", img.Len(), wantLen)
	}

	restored := NewMem()
	if _, err := restored.ReadFrom(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.NumBlocks() != s.NumBlocks() {
		t.Fatalf("restored %d blocks, want %d", restored.NumBlocks(), s.NumBlocks())
	}
	if restored.ChecksummedBlocks() != s.NumBlocks() {
		t.Errorf("restored table covers %d blocks, want %d", restored.ChecksummedBlocks(), s.NumBlocks())
	}

	// A flipped bit anywhere in a block's bytes fails the load.
	raw := append([]byte(nil), img.Bytes()...)
	raw[8+BlockSize/2] ^= 0x10 // middle of block 1
	bad := NewMem()
	if _, err := bad.ReadFrom(bytes.NewReader(raw)); !IsCorrupt(err) {
		t.Fatalf("corrupted image loaded: %v", err)
	}
}

// TestImageOldFormatReadable loads a pre-checksum image (header bit clear, no
// trailers) and checks it still round-trips.
func TestImageOldFormatReadable(t *testing.T) {
	img := make([]byte, 8+BlockSize)
	binary.LittleEndian.PutUint64(img, 1) // one block, imageSumsFlag clear
	copy(img[8:], "legacy")
	restored := NewMem()
	if _, err := restored.ReadFrom(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if err := restored.ReadBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:6], []byte("legacy")) {
		t.Error("legacy block content mismatch")
	}
	// Restored through Store.WriteBlock, so the new table covers it.
	if restored.ChecksummedBlocks() != 1 {
		t.Errorf("ChecksummedBlocks = %d, want 1", restored.ChecksummedBlocks())
	}
}

func TestChecksumShortWriteMatchesPadded(t *testing.T) {
	short := []byte("abc")
	padded := make([]byte, BlockSize)
	copy(padded, short)
	if Checksum(short) != Checksum(padded) {
		t.Fatal("Checksum(short) != Checksum(zero-padded)")
	}
}

// BenchmarkReadBlockChecksummed reads full blocks round-robin through
// ReadBlock, each verified against its CRC32C as every block read of a
// storage index is.
func BenchmarkReadBlockChecksummed(b *testing.B) {
	const n = 1024
	s := NewMem()
	block := make([]byte, BlockSize)
	for i := 0; i < n; i++ {
		block[0], block[BlockSize-1] = byte(i), byte(i>>8)
		if err := s.WriteBlock(s.Allocate(), block); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ReadBlock(Addr(1+i%n), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSumTableConcurrentRecordLookup: lookups take no lock, yet a reader
// racing writers — growth of the table included — sees each block either
// unrecorded or holding one of the sums recorded for it, never a torn or
// foreign word; afterwards every block holds its last sum. Meant for -race.
func TestSumTableConcurrentRecordLookup(t *testing.T) {
	var tab sumTable
	const blocks, writers, readers = 3*sumChunkBlocks + 17, 2, 4
	sumOf := func(a Addr, gen uint32) uint32 { return uint32(a)*2654435761 ^ gen<<31 }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for gen := uint32(0); gen < 2; gen++ {
				for a := Addr(w); a < blocks; a += writers {
					tab.record(a, sumOf(a, gen))
				}
			}
		}(w)
	}
	var rwg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := Addr(rng.Intn(blocks + sumChunkBlocks))
				sum, ok := tab.lookup(a)
				switch {
				case ok && a >= blocks:
					errs <- fmt.Errorf("block %d never recorded but looked up as %08x", a, sum)
					return
				case ok && sum != sumOf(a, 0) && sum != sumOf(a, 1):
					errs <- fmt.Errorf("block %d looked up as %08x, recorded %08x then %08x", a, sum, sumOf(a, 0), sumOf(a, 1))
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for a := Addr(0); a < blocks; a++ {
		if sum, ok := tab.lookup(a); !ok || sum != sumOf(a, 1) {
			t.Fatalf("block %d: lookup %08x, %v; want %08x", a, sum, ok, sumOf(a, 1))
		}
	}
}
