package ioengine

import (
	"context"
	"errors"
	"testing"

	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/faultinject"
)

// faultyStore builds a checksummed store over a fault-injecting backend
// with n written blocks, returning both.
func faultyStore(t *testing.T, n int, sch faultinject.Schedule) (*blockstore.Store, *faultinject.Backend) {
	t.Helper()
	fb := faultinject.Wrap(blockstore.NewMemBackend(), sch)
	s := blockstore.NewWithBackend(fb)
	for i := 0; i < n; i++ {
		a := s.Allocate()
		if err := s.WriteBlock(a, []byte{byte(i), byte(i >> 8), 0x5A}); err != nil {
			t.Fatal(err)
		}
	}
	return s, fb
}

func retryEngine(t *testing.T, src Source, retries int, cache *blockcache.Cache) *Engine {
	t.Helper()
	e, err := New(src, Options{Depth: 4, Cache: cache, Retries: retries})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRetryHealsTransientFaults(t *testing.T) {
	s, fb := faultyStore(t, 64, faultinject.Schedule{Seed: 11, EIO: 0.3})
	e := retryEngine(t, s, 4, nil)
	buf := make([]byte, blockstore.BlockSize)
	for a := blockstore.Addr(1); a <= blockstore.Addr(s.NumBlocks()); a++ {
		if err := e.Read(a, buf, nil); err != nil {
			t.Fatalf("block %d not healed by retries: %v", a, err)
		}
		if buf[2] != 0x5A {
			t.Fatalf("block %d returned wrong data", a)
		}
	}
	c := e.Counters()
	if c.RetriedReads == 0 {
		t.Error("30% fault rate healed without any retries recorded")
	}
	if c.FaultedReads != 0 {
		t.Errorf("FaultedReads = %d, want 0 (all faults transient)", c.FaultedReads)
	}
	if fb.Counters().EIO == 0 {
		t.Error("injector reports no EIO; test proved nothing")
	}
}

func TestRetryHealsBitRot(t *testing.T) {
	// Bit flips are in-flight corruption here: the injector flips a bit of
	// the returned copy, the store's CRC32C rejects it, and the retry
	// re-reads the intact device copy.
	s, _ := faultyStore(t, 32, faultinject.Schedule{Seed: 5, BitFlip: 0.4})
	e := retryEngine(t, s, 5, nil)
	buf := make([]byte, blockstore.BlockSize)
	for a := blockstore.Addr(1); a <= blockstore.Addr(s.NumBlocks()); a++ {
		if err := e.Read(a, buf, nil); err != nil {
			t.Fatalf("block %d: corruption not healed: %v", a, err)
		}
	}
}

func TestExhaustedRetriesQuarantine(t *testing.T) {
	dead := blockstore.Addr(3)
	s, fb := faultyStore(t, 8, faultinject.Schedule{
		Seed:      1,
		Permanent: map[blockstore.Addr]bool{dead: true},
	})
	e := retryEngine(t, s, 2, nil)
	buf := make([]byte, blockstore.BlockSize)

	err := e.Read(dead, buf, nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("dead block read: %v", err)
	}
	c := e.Counters()
	if c.RetriedReads != 2 {
		t.Errorf("RetriedReads = %d, want 2", c.RetriedReads)
	}
	if c.FaultedReads != 1 {
		t.Errorf("FaultedReads = %d, want 1", c.FaultedReads)
	}
	if c.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", c.Quarantined)
	}

	// Second read fails fast: no backend attempts, no retries.
	before := fb.Counters().Reads
	err = e.Read(dead, buf, nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("quarantined read must keep the original cause: %v", err)
	}
	if got := fb.Counters().Reads; got != before {
		t.Errorf("quarantined read still reached the backend (%d new reads)", got-before)
	}
	if got := e.Counters().QuarantineHits; got != 1 {
		t.Errorf("QuarantineHits = %d, want 1", got)
	}

	// Healthy neighbors are unaffected.
	if err := e.Read(4, buf, nil); err != nil {
		t.Fatalf("healthy block: %v", err)
	}
}

func TestVectoredSalvageIsolatesBadBlock(t *testing.T) {
	dead := blockstore.Addr(5)
	s, _ := faultyStore(t, 10, faultinject.Schedule{
		Seed:      2,
		Permanent: map[blockstore.Addr]bool{dead: true},
	})
	e := retryEngine(t, s, 2, nil)

	addrs := []blockstore.Addr{4, 5, 6, 7}
	bufs := make([][]byte, len(addrs))
	for i := range bufs {
		bufs[i] = make([]byte, blockstore.BlockSize)
	}
	var st BatchStats
	err := e.ReadBatch(context.Background(), addrs, bufs, &st)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("batch over dead block: %v", err)
	}
	// Every healthy run-mate must have been salvaged with good data.
	for i, a := range addrs {
		if a == dead {
			continue
		}
		if bufs[i][2] != 0x5A {
			t.Errorf("run-mate block %d poisoned by dead neighbor", a)
		}
	}
	if got := e.Counters().Quarantined; got != 1 {
		t.Errorf("Quarantined = %d, want 1", got)
	}

	// A later batch over the same run skips the doomed vectored attempt and
	// still serves the healthy members.
	for i := range bufs {
		clear(bufs[i])
	}
	err = e.ReadBatch(context.Background(), addrs, bufs, nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("second batch: %v", err)
	}
	for i, a := range addrs {
		if a != dead && bufs[i][2] != 0x5A {
			t.Errorf("second batch: block %d not served", a)
		}
	}
}

func TestCorruptReadNeverCached(t *testing.T) {
	s, _ := faultyStore(t, 4, faultinject.Schedule{Seed: 3, BitFlip: 1})
	cache, err := blockcache.New(1<<20, blockcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No retries: every read fails with ErrCorrupt and nothing may land in
	// the cache.
	e := retryEngine(t, s, 0, cache)
	buf := make([]byte, blockstore.BlockSize)
	if err := e.Read(1, buf, nil); !blockstore.IsCorrupt(err) {
		t.Fatalf("flipped block read: %v", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("corrupt read cached: cache holds %d blocks", cache.Len())
	}
	if got := e.Counters().FaultedReads; got != 1 {
		t.Errorf("FaultedReads = %d, want 1", got)
	}
}

func TestInvalidAddrNotRetried(t *testing.T) {
	s, fb := faultyStore(t, 4, faultinject.Schedule{Seed: 4})
	e := retryEngine(t, s, 5, nil)
	buf := make([]byte, blockstore.BlockSize)
	before := fb.Counters().Reads
	err := e.Read(99, buf, nil)
	if !errors.Is(err, blockstore.ErrInvalidAddr) {
		t.Fatalf("out-of-range read: %v", err)
	}
	if got := fb.Counters().Reads; got != before {
		t.Errorf("invalid address reached the backend %d times", got-before)
	}
	c := e.Counters()
	if c.RetriedReads != 0 || c.Quarantined != 0 {
		t.Errorf("invalid address retried/quarantined: %+v", c)
	}
}

// TestQuarantineBound fills the quarantine to one short of quarantineLimit,
// then condemns four dead blocks through the engine: the set stops at the
// limit, the oldest entrants released first, and the four newest fail fast.
func TestQuarantineBound(t *testing.T) {
	const dead = 4
	perm := map[blockstore.Addr]bool{}
	for a := blockstore.Addr(1); a <= dead; a++ {
		perm[a] = true
	}
	s, fb := faultyStore(t, dead+2, faultinject.Schedule{Seed: 6, Permanent: perm})
	e, err := New(s, Options{Depth: 2, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Earlier condemned addresses, beyond the store; the backoff ladder
	// each would cost through the engine is what this skips.
	for i := 0; i < quarantineLimit-1; i++ {
		e.quar.add(blockstore.Addr(1000+i), faultinject.ErrInjected)
	}
	buf := make([]byte, blockstore.BlockSize)
	for a := blockstore.Addr(1); a <= dead; a++ {
		if err := e.Read(a, buf, nil); err == nil {
			t.Fatalf("permanent block %d read succeeded", a)
		}
	}
	if got := e.Counters().Quarantined; got != quarantineLimit {
		t.Errorf("Quarantined = %d, want the limit %d", got, quarantineLimit)
	}
	if e.quar.check(1000) != nil || e.quar.check(1002) != nil || e.quar.check(1003) == nil {
		t.Error("the three oldest entrants were not the ones released")
	}
	before := fb.Counters().Reads
	for a := blockstore.Addr(1); a <= dead; a++ {
		if err := e.Read(a, buf, nil); err == nil {
			t.Fatalf("quarantined block %d read succeeded", a)
		}
	}
	if got := fb.Counters().Reads; got != before {
		t.Errorf("quarantined blocks reached the backend %d times", got-before)
	}
}
