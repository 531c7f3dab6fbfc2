package coalesce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hang bounds how long a test waits on an event that should already have
// happened; reaching it is a failure, never a measurement.
const hang = 10 * time.Second

// echo answers each query with its own first coordinate, so every caller can
// verify it got its own slot back.
func echo(_ context.Context, queries [][]float32) ([]float32, error) {
	out := make([]float32, len(queries))
	for i, q := range queries {
		out[i] = q[0]
	}
	return out, nil
}

// gate is a batch function under the test's control: every execution
// announces the batch it was handed on entered, then blocks until the test
// passes it one token on release (closing release lets everything through),
// then echoes.
type gate struct {
	entered chan [][]float32
	release chan struct{}
	running atomic.Int64
	peak    atomic.Int64 // most executions ever inside run at once
}

func newGate() *gate {
	// Room for every batch a test can produce, so an execution never blocks
	// announcing itself.
	return &gate{entered: make(chan [][]float32, 1024), release: make(chan struct{})}
}

func (g *gate) run(ctx context.Context, queries [][]float32) ([]float32, error) {
	now := g.running.Add(1)
	defer g.running.Add(-1)
	for {
		peak := g.peak.Load()
		if now <= peak || g.peak.CompareAndSwap(peak, now) {
			break
		}
	}
	g.entered <- queries
	<-g.release
	return echo(ctx, queries)
}

// next returns the next batch to reach the batch function.
func (g *gate) next(t *testing.T) [][]float32 {
	t.Helper()
	select {
	case qs := <-g.entered:
		return qs
	case <-time.After(hang):
		t.Fatal("no batch reached the batch function")
		return nil
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(hang)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s", what)
		}
		runtime.Gosched()
	}
}

// callers runs n concurrent Do calls with queries {base}, {base+1}, … and
// checks each gets its own answer back. The returned wait reports once all
// have returned.
func callers(t *testing.T, b *Batcher[[]float32, float32], base, n int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for c := base; c < base+n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got, err := b.Do(context.Background(), []float32{float32(c)})
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
			} else if got != float32(c) {
				t.Errorf("caller %d got %v", c, got)
			}
		}(c)
	}
	return wg.Wait
}

// occupy fills every execution slot of b with a one-query batch blocked in
// g, and returns how many slots there are and the wait for those callers.
func occupy(t *testing.T, b *Batcher[[]float32, float32], g *gate) (slots int, wait func()) {
	t.Helper()
	slots = b.cfg.Slots
	wait = callers(t, b, 0, slots)
	for i := 0; i < slots; i++ {
		if qs := g.next(t); len(qs) != 1 {
			t.Fatalf("a query into a free slot ran in a batch of %d", len(qs))
		}
	}
	if got := b.Executing(); got != slots {
		t.Fatalf("Executing() = %d with every slot blocked, want %d", got, slots)
	}
	return slots, wait
}

func inflight(b *Batcher[[]float32, float32]) int {
	n, _ := b.Load()
	return n
}

// TestCoalesceOwnResults is the core correctness property under the race
// detector: many concurrent callers, each must receive its own query's
// answer, never a batch-mate's.
func TestCoalesceOwnResults(t *testing.T) {
	b := New(echo, Config{MaxBatch: 8, MaxQueue: 1 << 20})
	defer b.Close()
	const n = 200
	callers(t, b, 0, n)()
	batches, queries := b.Batches()
	if queries != n || batches == 0 || batches > n {
		t.Errorf("Batches() = %d batches of %d queries for %d callers", batches, queries, n)
	}
	t.Logf("%d callers ran as %d batches", n, batches)
}

// TestCoalesceIdleCutsAtOnce: a lone query into an idle batcher reaches the
// batch function by itself — nothing it could wait for exists — however
// large MaxBatch is.
func TestCoalesceIdleCutsAtOnce(t *testing.T) {
	g := newGate()
	b := New(g.run, Config{MaxBatch: 1000})
	defer b.Close()
	wait := callers(t, b, 42, 1)
	if qs := g.next(t); len(qs) != 1 || qs[0][0] != 42 {
		t.Fatalf("batch function saw %v, want the lone query", qs)
	}
	close(g.release)
	wait()
	if n, _ := b.Load(); n != 0 {
		t.Errorf("Load() = %d after the only caller returned", n)
	}
	if got := b.Executing(); got != 0 {
		t.Errorf("Executing() = %d on an idle batcher", got)
	}
}

// TestCoalesceBatchesFormUnderLoad: queries admitted while every slot is
// busy leave, when slots free up, as ⌈N/MaxBatch⌉ batches of at most
// MaxBatch, in admission order, and every caller gets its own answer.
func TestCoalesceBatchesFormUnderLoad(t *testing.T) {
	const maxBatch, queued = 4, 10
	g := newGate()
	b := New(g.run, Config{MaxBatch: maxBatch, MaxQueue: 1 << 10})
	defer b.Close()
	slots, waitFirst := occupy(t, b, g)
	waitQueued := callers(t, b, 100, queued)
	waitFor(t, "the queued callers admitted", func() bool { return inflight(b) == slots+queued })
	if got := b.Executing(); got != slots {
		t.Fatalf("Executing() = %d with %d queued, want the bound %d", got, queued, slots)
	}
	if len(g.entered) != 0 {
		t.Fatalf("%d batches started beyond the slot bound", len(g.entered))
	}
	close(g.release)
	waitFirst()
	waitQueued()

	sizes, seen := []int{}, 0
	for len(g.entered) > 0 {
		qs := <-g.entered
		sizes = append(sizes, len(qs))
		seen += len(qs)
		if len(qs) > maxBatch {
			t.Errorf("a batch held %d queries, MaxBatch is %d", len(qs), maxBatch)
		}
	}
	if want := (queued + maxBatch - 1) / maxBatch; len(sizes) != want || seen != queued {
		t.Errorf("%d queued queries left as batches %v, want %d batches", queued, sizes, want)
	}
	if batches, queries := b.Batches(); batches != uint64(slots+len(sizes)) || queries != uint64(slots+queued) {
		t.Errorf("Batches() = %d, %d; want %d, %d", batches, queries, slots+len(sizes), slots+queued)
	}
	if n, _ := b.Load(); n != 0 {
		t.Errorf("Load() = %d after every caller returned", n)
	}
	if peak := g.peak.Load(); peak > int64(slots) {
		t.Errorf("%d batches executed at once, the slot bound is %d", peak, slots)
	}
}

// ask is a request that carries what its caller wants beside the value that
// names it, as the serving layer's queries carry their knobs.
type ask struct {
	budget int
	v      float32
}

// TestCoalesceMixedRequestsShareBatch: the queue is one queue whatever each
// request asks for — requests with different asks that arrive while every
// slot is busy leave as one batch, in admission order, each ask intact beside
// its value, and every caller gets its own answer.
func TestCoalesceMixedRequestsShareBatch(t *testing.T) {
	entered := make(chan []ask, 8)
	release := make(chan struct{})
	b := New(func(_ context.Context, qs []ask) ([]float32, error) {
		entered <- qs
		<-release
		out := make([]float32, len(qs))
		for i, q := range qs {
			out[i] = q.v
		}
		return out, nil
	}, Config{MaxBatch: 8, Slots: 1})
	defer b.Close()

	var wg sync.WaitGroup
	arrivals := []ask{{0, 0}, {101, 1}, {102, 2}, {101, 3}, {103, 4}}
	for i, a := range arrivals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := b.Do(context.Background(), a); err != nil || got != a.v {
				t.Errorf("request %+v: got %v, %v", a, got, err)
			}
		}()
		// One at a time, so the admission order is the order above.
		waitFor(t, "the arrival admitted", func() bool { n, _ := b.Load(); return n == i+1 })
	}
	if first := <-entered; len(first) != 1 || first[0] != arrivals[0] {
		t.Fatalf("the first batch was %v, want the request that found the slot free", first)
	}
	if len(entered) != 0 {
		t.Fatalf("%d batches started beyond the one slot", len(entered))
	}
	release <- struct{}{}
	select {
	case got := <-entered:
		if len(got) != 4 {
			t.Fatalf("the freed slot cut %v, want the four queued requests as one batch", got)
		}
		for i, want := range arrivals[1:] {
			if got[i] != want {
				t.Errorf("batch position %d holds %+v, want %+v", i, got[i], want)
			}
		}
	case <-time.After(hang):
		t.Fatal("the queued requests never reached the batch function")
	}
	close(release)
	wg.Wait()
	if batches, queries := b.Batches(); batches != 2 || queries != 5 {
		t.Errorf("Batches() = %d, %d; want 2 batches of 5 requests", batches, queries)
	}
}

// TestCoalesceDropsDeadCallersAtCut: a queued query whose caller is gone by
// the time its batch is cut is answered with the context's error and its
// queue slot released, without reaching the batch function.
func TestCoalesceDropsDeadCallersAtCut(t *testing.T) {
	g := newGate()
	b := New(g.run, Config{MaxBatch: 8, MaxQueue: 1 << 10})
	defer b.Close()
	slots, waitFirst := occupy(t, b, g)

	const queued, dead = 5, 3
	errs := make([]error, queued)
	var cancels []context.CancelFunc
	var wg sync.WaitGroup
	for c := 0; c < queued; c++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = b.Do(ctx, []float32{float32(100 + c)})
		}(c)
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	waitFor(t, "the queued callers admitted", func() bool { return inflight(b) == slots+queued })
	for c := 0; c < dead; c++ {
		cancels[c]()
	}
	close(g.release)
	waitFirst()
	wg.Wait()

	for c, err := range errs {
		if c < dead && !errors.Is(err, context.Canceled) {
			t.Errorf("canceled caller %d got %v, want context.Canceled", c, err)
		}
		if c >= dead && err != nil {
			t.Errorf("live caller %d: %v", c, err)
		}
	}
	if len(g.entered) != 1 {
		t.Fatalf("%d batches ran for the queued queries, want 1", len(g.entered))
	}
	if qs := <-g.entered; len(qs) != queued-dead {
		t.Errorf("the batch function saw %d queries, want the %d live ones", len(qs), queued-dead)
	}
	if n, _ := b.Load(); n != 0 {
		t.Errorf("Load() = %d after every caller returned", n)
	}
}

// TestCoalesceSlotsConfig: the slot bound defaults to GOMAXPROCS and follows
// Config.Slots; with one slot a second query queues behind the first however
// many processors there are.
func TestCoalesceSlotsConfig(t *testing.T) {
	if b := New(echo, Config{}); b.cfg.Slots != runtime.GOMAXPROCS(0) {
		t.Errorf("default slot bound = %d, want GOMAXPROCS = %d", b.cfg.Slots, runtime.GOMAXPROCS(0))
	}
	g := newGate()
	b := New(g.run, Config{MaxBatch: 8, Slots: 1})
	defer b.Close()
	slots, waitFirst := occupy(t, b, g)
	if slots != 1 {
		t.Fatalf("slot bound = %d, want 1", slots)
	}
	waitQueued := callers(t, b, 100, 2)
	waitFor(t, "the queued callers admitted", func() bool { return inflight(b) == 3 })
	if got := b.Executing(); got != 1 || len(g.entered) != 0 {
		t.Fatalf("Executing() = %d, %d more batches started; want the one slot busy and the rest queued", got, len(g.entered))
	}
	close(g.release)
	waitFirst()
	waitQueued()
	if qs := g.next(t); len(qs) != 2 {
		t.Errorf("the freed slot cut a batch of %d, want the 2 that queued", len(qs))
	}
}

// TestCoalesceHoldGathersCompany: under MaxDelay a query that finds a slot
// free is held, not cut; the batch leaves when MaxBatch queries have
// gathered, in admission order.
func TestCoalesceHoldGathersCompany(t *testing.T) {
	g := newGate()
	b := New(g.run, Config{MaxBatch: 3, MaxDelay: time.Hour})
	defer b.Close()
	for c := 0; c < 2; c++ {
		defer callers(t, b, c, 1)()
		waitFor(t, "the caller admitted", func() bool { return inflight(b) == c+1 })
	}
	if got := b.Executing(); got != 0 || len(g.entered) != 0 {
		t.Fatalf("Executing() = %d, %d batches started during the hold; want none", got, len(g.entered))
	}
	defer callers(t, b, 2, 1)()
	qs := g.next(t)
	if len(qs) != 3 || qs[0][0] != 0 || qs[1][0] != 1 || qs[2][0] != 2 {
		t.Errorf("the full batch was %v, want queries 0, 1, 2", qs)
	}
	close(g.release)
}

// TestCoalesceHoldExpires: a held query nobody joins is cut when its hold is
// over, as a batch of its own.
func TestCoalesceHoldExpires(t *testing.T) {
	b := New(echo, Config{MaxBatch: 8, MaxDelay: time.Millisecond})
	defer b.Close()
	callers(t, b, 7, 1)()
	if batches, queries := b.Batches(); batches != 1 || queries != 1 {
		t.Errorf("Batches() = %d, %d; want one batch of one", batches, queries)
	}
}

// TestCoalesceHoldEndsWhenHolderLeaves: the caller holding a batch cuts it on
// its way out, so the company it gathered is served without it.
func TestCoalesceHoldEndsWhenHolderLeaves(t *testing.T) {
	g := newGate()
	b := New(g.run, Config{MaxBatch: 8, MaxDelay: time.Hour})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	holder := make(chan error, 1)
	go func() {
		_, err := b.Do(ctx, []float32{0})
		holder <- err
	}()
	waitFor(t, "the holder admitted", func() bool { return inflight(b) == 1 })
	wait := callers(t, b, 1, 1)
	waitFor(t, "its company admitted", func() bool { return inflight(b) == 2 })
	cancel()
	if err := <-holder; !errors.Is(err, context.Canceled) {
		t.Fatalf("the leaving holder got %v, want context.Canceled", err)
	}
	if qs := g.next(t); len(qs) != 1 || qs[0][0] != 1 {
		t.Errorf("the batch function saw %v, want only the company", qs)
	}
	close(g.release)
	wait()
	if n, _ := b.Load(); n != 0 {
		t.Errorf("Load() = %d after every caller returned", n)
	}
}

// TestCoalesceHoldTakenByFinishingSlot: a hold does not outlast a slot that
// finishes meanwhile — that slot takes the held query with whatever queued.
func TestCoalesceHoldTakenByFinishingSlot(t *testing.T) {
	g := newGate()
	b := New(g.run, Config{MaxBatch: 2, MaxDelay: time.Hour, Slots: 2})
	defer b.Close()
	var waitFirst [2]func()
	for c := range waitFirst { // a full batch of two: cut when the second arrives
		waitFirst[c] = callers(t, b, c, 1)
		waitFor(t, "the caller admitted", func() bool { return inflight(b) == c+1 })
	}
	if qs := g.next(t); len(qs) != 2 {
		t.Fatalf("the first batch was %v, want the two callers that filled it", qs)
	}
	waitHeld := callers(t, b, 2, 1)
	waitFor(t, "the held caller admitted", func() bool { return inflight(b) == 3 })
	if got := b.Executing(); got != 1 || len(g.entered) != 0 {
		t.Fatalf("Executing() = %d, %d more batches started; want the third query held", got, len(g.entered))
	}
	g.release <- struct{}{}
	waitFirst[0]()
	waitFirst[1]()
	if qs := g.next(t); len(qs) != 1 || qs[0][0] != 2 {
		t.Errorf("the finishing slot cut %v, want the held query", qs)
	}
	close(g.release)
	waitHeld()
}

// TestCoalesceLoadShedding: a stalled batch function fills the admission
// queue, and the caller after the bound is shed with ErrOverloaded instead
// of queuing.
func TestCoalesceLoadShedding(t *testing.T) {
	g := newGate()
	const maxQueue = 8
	b := New(g.run, Config{MaxBatch: 1, MaxQueue: maxQueue})
	defer b.Close()
	wait := callers(t, b, 0, maxQueue)
	waitFor(t, "the queue full", func() bool { return inflight(b) == maxQueue })
	if _, err := b.Do(context.Background(), []float32{0}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-admission returned %v, want ErrOverloaded", err)
	}
	if b.Shed() != 1 {
		t.Errorf("shed counter = %d, want 1", b.Shed())
	}
	close(g.release)
	wait()
}

// TestCoalesceCallerCancel: a caller whose context dies while its batch
// executes stops waiting with ctx.Err(), and a pre-canceled caller is
// refused before admission.
func TestCoalesceCallerCancel(t *testing.T) {
	g := newGate()
	b := New(g.run, Config{MaxBatch: 1, MaxQueue: 4})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Do(ctx, []float32{0})
		done <- err
	}()
	g.next(t)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller got %v, want context.Canceled", err)
	}
	// A pre-canceled caller is refused before admission: no queue slot, no
	// batch work.
	if _, err := b.Do(ctx, []float32{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled caller got %v, want context.Canceled", err)
	}
	if n, _ := b.Load(); n != 1 {
		t.Errorf("pre-canceled caller took a queue slot: inflight = %d, want 1", n)
	}
	close(g.release)
}

// TestCoalesceBatchError: a failing batch delivers its error to every caller
// in the batch.
func TestCoalesceBatchError(t *testing.T) {
	boom := errors.New("engine down")
	fail := func(ctx context.Context, queries [][]float32) ([]float32, error) {
		return nil, boom
	}
	b := New(fail, Config{MaxBatch: 4})
	defer b.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Do(context.Background(), []float32{0}); !errors.Is(err, boom) {
				t.Errorf("got %v, want the batch error", err)
			}
		}()
	}
	wg.Wait()
}

// TestCoalescePanic: a panicking batch function fails its callers with
// ErrPanic, is counted, and leaves the batcher serving.
func TestCoalescePanic(t *testing.T) {
	var poisoned atomic.Bool
	poisoned.Store(true)
	b := New(func(ctx context.Context, queries [][]float32) ([]float32, error) {
		if poisoned.Load() {
			panic(fmt.Sprintf("bad query %v", queries[0]))
		}
		return echo(ctx, queries)
	}, Config{})
	defer b.Close()
	if _, err := b.Do(context.Background(), []float32{1}); !errors.Is(err, ErrPanic) {
		t.Fatalf("poisoned batch returned %v, want ErrPanic", err)
	}
	if b.Panics() != 1 {
		t.Errorf("Panics() = %d, want 1", b.Panics())
	}
	poisoned.Store(false)
	if got, err := b.Do(context.Background(), []float32{2}); err != nil || got != 2 {
		t.Fatalf("after the panic Do = %v, %v", got, err)
	}
	if n, _ := b.Load(); n != 0 || b.Executing() != 0 {
		t.Errorf("after the panic Load() = %d, Executing() = %d; want 0, 0", n, b.Executing())
	}
}

// TestCoalesceCountsReportedPanic: a batch function that recovered a panic on
// a goroutine of its own and reports it as an error wrapping ErrPanic is
// counted like one that panicked on the batch goroutine.
func TestCoalesceCountsReportedPanic(t *testing.T) {
	b := New(func(context.Context, [][]float32) ([]float32, error) {
		return nil, fmt.Errorf("worker 3: %w: index out of range", ErrPanic)
	}, Config{})
	defer b.Close()
	if _, err := b.Do(context.Background(), []float32{1}); !errors.Is(err, ErrPanic) {
		t.Fatalf("Do returned %v, want the reported ErrPanic", err)
	}
	if b.Panics() != 1 {
		t.Errorf("Panics() = %d, want 1", b.Panics())
	}
}

// TestCoalesceClose: Close waits for queued queries to be answered — they
// are flushed, not dropped — and Do after Close is ErrClosed.
func TestCoalesceClose(t *testing.T) {
	g := newGate()
	b := New(g.run, Config{MaxBatch: 1000})
	slots, waitFirst := occupy(t, b, g)
	const queued = 3
	waitQueued := callers(t, b, 100, queued)
	waitFor(t, "the queued callers admitted", func() bool { return inflight(b) == slots+queued })

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(t, "Close refusing admission", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.closed
	})
	if _, err := b.Do(context.Background(), []float32{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do during Close returned %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with queries still queued")
	default:
	}
	close(g.release)
	waitFirst()
	waitQueued()
	select {
	case <-closed:
	case <-time.After(hang):
		t.Fatal("Close never returned after the queue drained")
	}
	if _, err := b.Do(context.Background(), []float32{2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Do returned %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

// TestCoalesceCloseEndsHold: Close does not sit out a hold — the held query
// is cut and answered at once.
func TestCoalesceCloseEndsHold(t *testing.T) {
	b := New(echo, Config{MaxBatch: 8, MaxDelay: time.Hour})
	wait := callers(t, b, 5, 1)
	waitFor(t, "the held caller admitted", func() bool { return inflight(b) == 1 })
	b.Close()
	wait()
}
