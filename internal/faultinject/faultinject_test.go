package faultinject

import (
	"errors"
	"testing"
	"time"

	"e2lshos/internal/blockstore"
)

// fill writes n distinct blocks through a checksumming store over the
// injecting backend, returning the store (writes pass through untouched).
func fill(t *testing.T, b *Backend, n int) *blockstore.Store {
	t.Helper()
	s := blockstore.NewWithBackend(b)
	for i := 0; i < n; i++ {
		a := s.Allocate()
		if err := s.WriteBlock(a, []byte{byte(i), byte(i >> 8), 0xC5}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestDeterministicAcrossRuns(t *testing.T) {
	trace := func() ([]bool, Counters) {
		b := Wrap(blockstore.NewMemBackend(), Schedule{Seed: 42, EIO: 0.3})
		s := fill(t, b, 64)
		var errs []bool
		buf := make([]byte, blockstore.BlockSize)
		for pass := 0; pass < 3; pass++ {
			for a := blockstore.Addr(1); a <= blockstore.Addr(s.NumBlocks()); a++ {
				errs = append(errs, s.ReadBlock(a, buf) != nil)
			}
		}
		return errs, b.Counters()
	}
	e1, c1 := trace()
	e2, c2 := trace()
	if c1 != c2 {
		t.Fatalf("counters differ across identical runs: %+v vs %+v", c1, c2)
	}
	if c1.EIO == 0 {
		t.Fatal("30% EIO rate over 192 reads injected nothing")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("read %d differs across identical runs", i)
		}
	}
}

func TestTransientFaultsClearOnRetry(t *testing.T) {
	b := Wrap(blockstore.NewMemBackend(), Schedule{Seed: 7, EIO: 0.5})
	s := fill(t, b, 32)
	buf := make([]byte, blockstore.BlockSize)
	for a := blockstore.Addr(1); a <= blockstore.Addr(s.NumBlocks()); a++ {
		ok := false
		for attempt := 0; attempt < 20; attempt++ {
			if s.ReadBlock(a, buf) == nil {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("block %d: 20 retries at 50%% fault rate never succeeded", a)
		}
	}
}

func TestPermanentNeverRecovers(t *testing.T) {
	dead := blockstore.Addr(3)
	b := Wrap(blockstore.NewMemBackend(), Schedule{Seed: 1, Permanent: map[blockstore.Addr]bool{dead: true}})
	s := fill(t, b, 8)
	buf := make([]byte, blockstore.BlockSize)
	for i := 0; i < 50; i++ {
		if err := s.ReadBlock(dead, buf); !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d on permanent address: %v", i, err)
		}
	}
	if err := s.ReadBlock(4, buf); err != nil {
		t.Fatalf("healthy neighbor failed: %v", err)
	}
	if got := b.Counters().PermanentHits; got != 50 {
		t.Errorf("PermanentHits = %d, want 50", got)
	}
}

func TestFailFirstThenRecover(t *testing.T) {
	b := Wrap(blockstore.NewMemBackend(), Schedule{Seed: 1, FailFirst: 5})
	s := fill(t, b, 4)
	buf := make([]byte, blockstore.BlockSize)
	fails := 0
	for i := 0; i < 20; i++ {
		a := blockstore.Addr(i%int(s.NumBlocks())) + 1
		if err := s.ReadBlock(a, buf); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			fails++
			if i >= 5 {
				t.Fatalf("read %d failed after the FailFirst budget", i)
			}
		}
	}
	if fails != 5 {
		t.Fatalf("FailFirst=5 injected %d failures", fails)
	}
}

// TestBitFlipsAreSilentUntilChecksummed: the injector returns success on a
// bit flip; only the store's CRC32C layer turns it into *ErrCorrupt.
func TestBitFlipsAreSilentUntilChecksummed(t *testing.T) {
	b := Wrap(blockstore.NewMemBackend(), Schedule{Seed: 9, BitFlip: 1})
	s := fill(t, b, 4)
	buf := make([]byte, blockstore.BlockSize)

	err := s.ReadBlock(1, buf)
	if !blockstore.IsCorrupt(err) {
		t.Fatalf("checksummed store read of flipped block: %v", err)
	}
	if errors.Is(err, ErrInjected) {
		t.Error("bit flip surfaced as an injector error; it must be silent below the checksum layer")
	}

	if err := b.ReadBlock(1, buf); err != nil {
		t.Fatalf("below the checksum layer the flip must be silent: %v", err)
	}
	if got := b.Counters().BitFlips; got != 2 {
		t.Errorf("BitFlips = %d, want 2", got)
	}
}

func TestSlowReadsCompleteCorrectly(t *testing.T) {
	b := Wrap(blockstore.NewMemBackend(), Schedule{Seed: 3, SlowRead: 1, SlowDelay: time.Millisecond})
	s := fill(t, b, 2)
	buf := make([]byte, blockstore.BlockSize)
	start := time.Now()
	if err := s.ReadBlock(1, buf); err != nil {
		t.Fatalf("slow read failed: %v", err)
	}
	if d := time.Since(start); d < time.Millisecond {
		t.Errorf("slow read returned in %v, want >= 1ms", d)
	}
	if buf[2] != 0xC5 {
		t.Error("slow read returned wrong data")
	}
	if got := b.Counters().SlowReads; got != 1 {
		t.Errorf("SlowReads = %d, want 1", got)
	}
}

func TestShortReadCounts(t *testing.T) {
	b := Wrap(blockstore.NewMemBackend(), Schedule{Seed: 4, ShortRead: 1})
	s := fill(t, b, 2)
	buf := make([]byte, blockstore.BlockSize)
	if err := s.ReadBlock(1, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("short read: %v", err)
	}
	c := b.Counters()
	if c.ShortReads != 1 || c.Failures() != 1 {
		t.Errorf("counters = %+v, want 1 short read / 1 failure", c)
	}
}

// TestVectoredFaultsPerBlock: a fault on one block of a vectored read fails
// the call (first-error semantics), leaving neighbors retriable one by one.
func TestVectoredFaultsPerBlock(t *testing.T) {
	dead := blockstore.Addr(2)
	b := Wrap(blockstore.NewMemBackend(), Schedule{Seed: 1, Permanent: map[blockstore.Addr]bool{dead: true}})
	s := fill(t, b, 3)
	bufs := [][]byte{make([]byte, blockstore.BlockSize), make([]byte, blockstore.BlockSize), make([]byte, blockstore.BlockSize)}
	if _, err := s.ReadBlocks([]blockstore.Addr{1, 2, 3}, bufs); !errors.Is(err, ErrInjected) {
		t.Fatalf("vectored read over dead block: %v", err)
	}
	if err := s.ReadBlock(1, bufs[0]); err != nil {
		t.Fatalf("block 1 individually: %v", err)
	}
	if err := s.ReadBlock(3, bufs[2]); err != nil {
		t.Fatalf("block 3 individually: %v", err)
	}
}
