// Package faultinject wraps a blockstore.Backend with deterministic,
// seed-driven storage fault injection: transient EIO, short reads, silent
// bit flips, stuck-slow reads, fail-N-then-recover schedules, and
// permanently dead addresses. It is the test substrate for the fault
// tolerance stack — the retry/quarantine layer in ioengine, the checksum
// verification in blockstore, and the degraded partial-results paths in
// diskindex are all exercised against it.
//
// Determinism: every injection decision is a pure function of (seed, block
// address, per-address attempt number), so a run is reproducible from its
// seed regardless of goroutine interleaving, and a retry of the same block
// is a NEW attempt with a fresh roll — at fault rate p, a transient fault
// clears on retry with probability 1-p, exactly the recoverable-fault model
// the retry layer is built for. Faults that must not recover use Permanent.
//
// The wrapper injects on reads only; writes pass through untouched (the
// index build stays intact, which is what query-path chaos tests want).
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"e2lshos/internal/blockstore"
)

// ErrInjected is wrapped by every error the injector returns, so tests can
// tell injected faults from real ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected I/O fault")

// Schedule describes what to inject. Rates are per-read-attempt
// probabilities in [0, 1]; independent rolls decide each fault kind, with
// at most one fault injected per attempt (priority: permanent, fail-first,
// EIO, short read, bit flip, slow read).
type Schedule struct {
	// Seed drives every injection decision. Two backends with the same seed
	// and the same per-address read counts inject identical faults.
	Seed uint64
	// EIO is the probability a read fails outright with an injected EIO.
	EIO float64
	// ShortRead is the probability a read returns fewer than BlockSize
	// bytes (surfaced as an error wrapping io.ErrUnexpectedEOF, matching
	// the file backend's short-pread contract).
	ShortRead float64
	// BitFlip is the probability a read SUCCEEDS but hands back the block
	// with one bit flipped — silent corruption only checksums can catch.
	BitFlip float64
	// SlowRead is the probability a read stalls for SlowDelay before
	// completing normally (a stuck-slow device).
	SlowRead float64
	// SlowDelay is the stall for SlowRead faults (default 2ms).
	SlowDelay time.Duration
	// FailFirst fails the first N reads (across all addresses) with EIO,
	// then recovers: the fail-N-then-recover schedule of a device coming
	// back from a reset.
	FailFirst int
	// FailAfter, when positive, fails every read past the first N with EIO:
	// a device dying mid-workload, the mirror schedule of FailFirst.
	FailAfter int
	// Permanent lists addresses whose reads always fail with EIO, never
	// recovering — the quarantine layer's diet.
	Permanent map[blockstore.Addr]bool
}

// Counters reports what a Backend injected, by kind. Reads counts every
// ReadBlock-level attempt (vectored reads count per block).
type Counters struct {
	Reads         int64
	EIO           int64 // transient EIO errors (FailFirst included)
	ShortReads    int64
	BitFlips      int64
	SlowReads     int64
	PermanentHits int64 // failed reads of Permanent addresses
}

// Failures is the number of attempts that returned an error: everything
// except bit flips (silent) and slow reads (delayed success).
func (c Counters) Failures() int64 { return c.EIO + c.ShortReads + c.PermanentHits }

// Backend wraps an inner backend with the fault schedule. It preserves the
// inner backend's concurrency contract (concurrent readers, reads racing
// writes on disjoint addresses).
type Backend struct {
	inner blockstore.Backend
	sch   Schedule

	mu       sync.Mutex
	attempts map[blockstore.Addr]uint64 //lsh:guardedby mu
	first    int64                      //lsh:guardedby mu — FailFirst budget left
	served   int64                      //lsh:guardedby mu — reads decided, for FailAfter

	// disarmed suspends injection (reads pass straight through and are not
	// counted), so a test can build an index cleanly through the wrapper and
	// then Arm the schedule for the query phase.
	disarmed atomic.Bool

	reads    atomic.Int64
	eio      atomic.Int64
	short    atomic.Int64
	flips    atomic.Int64
	slow     atomic.Int64
	permHits atomic.Int64
}

// Wrap returns a fault-injecting view of inner.
func Wrap(inner blockstore.Backend, sch Schedule) *Backend {
	if sch.SlowDelay <= 0 {
		sch.SlowDelay = 2 * time.Millisecond
	}
	return &Backend{
		inner:    inner,
		sch:      sch,
		attempts: make(map[blockstore.Addr]uint64),
		first:    int64(sch.FailFirst),
	}
}

// Disarm suspends the schedule: reads pass through uncounted until Arm.
func (b *Backend) Disarm() { b.disarmed.Store(true) }

// Arm (re-)activates the schedule after Disarm.
func (b *Backend) Arm() { b.disarmed.Store(false) }

// Counters snapshots the per-kind injection counts.
func (b *Backend) Counters() Counters {
	return Counters{
		Reads:         b.reads.Load(),
		EIO:           b.eio.Load(),
		ShortReads:    b.short.Load(),
		BitFlips:      b.flips.Load(),
		SlowReads:     b.slow.Load(),
		PermanentHits: b.permHits.Load(),
	}
}

// splitmix64 is the standard 64-bit finalizer; uniform enough that the low
// bits of successive mixes behave as independent rolls.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll returns a deterministic uniform value in [0, 1) for one (address,
// attempt, kind) triple under the schedule's seed.
func (b *Backend) roll(a blockstore.Addr, attempt uint64, kind uint64) float64 {
	h := splitmix64(b.sch.Seed ^ splitmix64(uint64(a)^splitmix64(attempt^kind<<56)))
	return float64(h>>11) / float64(1<<53)
}

// decide picks the fault for this attempt (or none) and counts it.
type fault uint8

const (
	faultNone fault = iota
	faultEIO
	faultShort
	faultFlip
	faultSlow
	faultPermanent
)

func (b *Backend) decide(a blockstore.Addr) (fault, uint64) {
	if b.sch.Permanent[a] {
		b.permHits.Add(1)
		return faultPermanent, 0
	}
	b.mu.Lock()
	attempt := b.attempts[a]
	b.attempts[a] = attempt + 1
	failFirst := b.first > 0
	if failFirst {
		b.first--
	}
	failAfter := b.sch.FailAfter > 0 && b.served >= int64(b.sch.FailAfter)
	b.served++
	b.mu.Unlock()
	if failFirst || failAfter {
		b.eio.Add(1)
		return faultEIO, attempt
	}
	switch {
	case b.sch.EIO > 0 && b.roll(a, attempt, 1) < b.sch.EIO:
		b.eio.Add(1)
		return faultEIO, attempt
	case b.sch.ShortRead > 0 && b.roll(a, attempt, 2) < b.sch.ShortRead:
		b.short.Add(1)
		return faultShort, attempt
	case b.sch.BitFlip > 0 && b.roll(a, attempt, 3) < b.sch.BitFlip:
		b.flips.Add(1)
		return faultFlip, attempt
	case b.sch.SlowRead > 0 && b.roll(a, attempt, 4) < b.sch.SlowRead:
		b.slow.Add(1)
		return faultSlow, attempt
	}
	return faultNone, attempt
}

func (b *Backend) ReadBlock(a blockstore.Addr, buf []byte) error {
	if b.disarmed.Load() {
		return b.inner.ReadBlock(a, buf)
	}
	b.reads.Add(1)
	f, attempt := b.decide(a)
	switch f {
	case faultPermanent:
		return fmt.Errorf("faultinject: permanent failure reading block %d: %w", a, ErrInjected)
	case faultEIO:
		return fmt.Errorf("faultinject: EIO reading block %d (attempt %d): %w", a, attempt, ErrInjected)
	case faultShort:
		// Partially fill, like a torn pread, then report the short count.
		if err := b.inner.ReadBlock(a, buf); err != nil {
			return err
		}
		n := int(b.roll(a, attempt, 5) * float64(blockstore.BlockSize))
		clear(buf[n:blockstore.BlockSize])
		return fmt.Errorf("faultinject: short read of block %d: %d of %d bytes: %w",
			a, n, blockstore.BlockSize, ErrInjected)
	case faultSlow:
		time.Sleep(b.sch.SlowDelay)
		return b.inner.ReadBlock(a, buf)
	case faultFlip:
		if err := b.inner.ReadBlock(a, buf); err != nil {
			return err
		}
		bit := int(b.roll(a, attempt, 6) * float64(blockstore.BlockSize*8))
		buf[bit/8] ^= 1 << (bit % 8)
		return nil
	}
	return b.inner.ReadBlock(a, buf)
}

// ReadBlocks applies faults per block: a vectored read over a faulty device
// fails at block granularity, so one bad block must not decide its
// neighbors' fates. Runs are counted with the shared coalescing rule.
func (b *Backend) ReadBlocks(addrs []blockstore.Addr, bufs [][]byte) (int, error) {
	return blockstore.ReadBlocksSerial(b, addrs, bufs)
}

func (b *Backend) WriteBlock(a blockstore.Addr, data []byte) error {
	return b.inner.WriteBlock(a, data)
}

func (b *Backend) NumBlocks() uint64 { return b.inner.NumBlocks() }
