package coalesce

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// keyedBatch is one execution a keyedGate saw.
type keyedBatch struct {
	key     int
	queries [][]float32
}

// keyedGate is gate for a Keyed batcher: executions announce their key and
// batch, then block for one release token each.
type keyedGate struct {
	entered chan keyedBatch
	release chan struct{}
	running atomic.Int64
	peak    atomic.Int64
}

func newKeyedGate() *keyedGate {
	return &keyedGate{entered: make(chan keyedBatch, 1024), release: make(chan struct{})}
}

func (g *keyedGate) run(ctx context.Context, key int, queries [][]float32) ([]float32, error) {
	now := g.running.Add(1)
	defer g.running.Add(-1)
	for {
		peak := g.peak.Load()
		if now <= peak || g.peak.CompareAndSwap(peak, now) {
			break
		}
	}
	g.entered <- keyedBatch{key, queries}
	<-g.release
	return echo(ctx, queries)
}

func (g *keyedGate) next(t *testing.T) keyedBatch {
	t.Helper()
	select {
	case kb := <-g.entered:
		return kb
	case <-time.After(hang):
		t.Fatal("no batch reached the batch function")
		return keyedBatch{}
	}
}

// TestKeyedBatchesAreKeyPure: concurrent callers across several keys always
// land in batches of exactly their own key, and every caller gets its own
// slot back. Run with -race this also exercises the shared-admitter paths.
func TestKeyedBatchesAreKeyPure(t *testing.T) {
	type key struct{ fanout int }
	var mixed atomic.Int64
	run := func(ctx context.Context, k key, queries [][]float32) ([]float32, error) {
		out := make([]float32, len(queries))
		for i, q := range queries {
			if int(q[0]) != k.fanout {
				mixed.Add(1)
			}
			out[i] = q[1]
		}
		return out, nil
	}
	kb := NewKeyed(run, Config{MaxBatch: 8, MaxQueue: 1024})
	defer kb.Close()

	const keys, perKey = 4, 64
	var wg sync.WaitGroup
	errc := make(chan error, keys*perKey)
	for f := 0; f < keys; f++ {
		for i := 0; i < perKey; i++ {
			wg.Add(1)
			go func(f, i int) {
				defer wg.Done()
				want := float32(f*1000 + i)
				got, err := kb.Do(context.Background(), key{fanout: f}, []float32{float32(f), want})
				if err != nil {
					errc <- err
					return
				}
				if got != want {
					errc <- errors.New("slot misrouted across callers")
				}
			}(f, i)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if n := mixed.Load(); n != 0 {
		t.Errorf("%d queries landed in a batch of the wrong key", n)
	}
}

// keyedCaller admits one query under key and reports through wg; the query's
// value names it.
func keyedCaller(t *testing.T, kb *Keyed[int, float32], wg *sync.WaitGroup, key int, v float32) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		if got, err := kb.Do(context.Background(), key, []float32{v}); err != nil || got != v {
			t.Errorf("key %d query %v: got %v, %v", key, v, got, err)
		}
	}()
}

// TestKeyedSlotBoundAndOldestFirst: the execution-slot bound covers the
// whole family — distinct keys do not each get GOMAXPROCS batches — and a
// freed slot goes to the key whose oldest pending query was admitted first,
// taking that key's later arrivals along.
func TestKeyedSlotBoundAndOldestFirst(t *testing.T) {
	g := newKeyedGate()
	kb := NewKeyed(g.run, Config{MaxBatch: 8, MaxQueue: 1 << 10})
	defer kb.Close()
	slots := runtime.GOMAXPROCS(0)
	inflight := func() int { n, _ := kb.Load(); return n }

	var wg sync.WaitGroup
	// One key per slot, each its own one-query batch at once.
	for i := 0; i < slots; i++ {
		keyedCaller(t, kb, &wg, i, float32(i))
	}
	for i := 0; i < slots; i++ {
		if b := g.next(t); len(b.queries) != 1 {
			t.Fatalf("a query into a free slot ran in a batch of %d", len(b.queries))
		}
	}
	// Three more keys arrive in a known order while every slot is blocked:
	// key 101, then 102, then 101 again, then 103.
	for i, arrival := range []struct {
		key int
		v   float32
	}{{101, 1}, {102, 2}, {101, 3}, {103, 4}} {
		keyedCaller(t, kb, &wg, arrival.key, arrival.v)
		waitFor(t, "the arrival admitted", func() bool { return inflight() == slots+i+1 })
	}
	if got := kb.Executing(); got != slots {
		t.Fatalf("Executing() = %d with three more keys pending, want the family bound %d", got, slots)
	}
	if len(g.entered) != 0 {
		t.Fatalf("%d batches started beyond the slot bound", len(g.entered))
	}

	// Each token frees one slot, which must cut the oldest-headed key next.
	for _, want := range []keyedBatch{
		{101, [][]float32{{1}, {3}}},
		{102, [][]float32{{2}}},
		{103, [][]float32{{4}}},
	} {
		g.release <- struct{}{}
		got := g.next(t)
		if got.key != want.key || len(got.queries) != len(want.queries) {
			t.Fatalf("freed slot ran key %d × %d, want key %d × %d", got.key, len(got.queries), want.key, len(want.queries))
		}
		for i := range want.queries {
			if got.queries[i][0] != want.queries[i][0] {
				t.Errorf("key %d batch holds %v, want %v", got.key, got.queries, want.queries)
			}
		}
	}
	close(g.release)
	wg.Wait()
	if peak := g.peak.Load(); peak > int64(slots) {
		t.Errorf("%d batches executed at once across the family, bound is %d", peak, slots)
	}
	if n := inflight(); n != 0 {
		t.Errorf("Load() = %d after every caller returned", n)
	}
}

// TestKeyedHoldIsPerKey: under MaxDelay each key gathers its own batch; one
// key filling its batch does not cut another key's hold short.
func TestKeyedHoldIsPerKey(t *testing.T) {
	g := newKeyedGate()
	kb := NewKeyed(g.run, Config{MaxBatch: 2, MaxDelay: time.Hour, Slots: 4})
	inflight := func() int { n, _ := kb.Load(); return n }

	var wg sync.WaitGroup
	keyedCaller(t, kb, &wg, 1, 10)
	waitFor(t, "key 1 held", func() bool { return inflight() == 1 })
	keyedCaller(t, kb, &wg, 2, 20)
	waitFor(t, "key 2 held", func() bool { return inflight() == 2 })
	if got := kb.Executing(); got != 0 || len(g.entered) != 0 {
		t.Fatalf("Executing() = %d, %d batches started during the holds; want none", got, len(g.entered))
	}
	keyedCaller(t, kb, &wg, 2, 21)
	if got := g.next(t); got.key != 2 || len(got.queries) != 2 {
		t.Fatalf("the full batch was key %d × %d, want key 2 × 2", got.key, len(got.queries))
	}
	if len(g.entered) != 0 {
		t.Fatalf("key 2 filling its batch cut key 1's hold short")
	}
	close(g.release)
	kb.Close() // ends key 1's hold
	wg.Wait()
	if got := g.next(t); got.key != 1 || len(got.queries) != 1 {
		t.Errorf("Close cut key %d × %d, want key 1's held query", got.key, len(got.queries))
	}
}

// TestKeyedSharedQueueBound: MaxQueue bounds admissions across keys jointly;
// a second key cannot be admitted while the first key's stalled batches hold
// every queue slot, and the family-wide shed counter records the refusal.
func TestKeyedSharedQueueBound(t *testing.T) {
	g := newKeyedGate()
	const maxQueue = 4
	kb := NewKeyed(g.run, Config{MaxBatch: 1, MaxQueue: maxQueue})
	defer kb.Close()

	var wg sync.WaitGroup
	for c := 0; c < maxQueue; c++ {
		keyedCaller(t, kb, &wg, 1, float32(c))
	}
	waitFor(t, "the queue full", func() bool { n, _ := kb.Load(); return n == maxQueue })
	if _, err := kb.Do(context.Background(), 2, []float32{0}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cross-key over-admission returned %v, want ErrOverloaded", err)
	}
	if kb.Shed() != 1 {
		t.Errorf("family shed counter = %d, want 1", kb.Shed())
	}
	close(g.release)
	wg.Wait()
}

// TestKeyedClose: Do after Close refuses with ErrClosed on every key.
func TestKeyedClose(t *testing.T) {
	run := func(ctx context.Context, k int, queries [][]float32) ([]float32, error) {
		return make([]float32, len(queries)), nil
	}
	kb := NewKeyed(run, Config{})
	if _, err := kb.Do(context.Background(), 1, []float32{0}); err != nil {
		t.Fatal(err)
	}
	kb.Close()
	if _, err := kb.Do(context.Background(), 1, []float32{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
	if _, err := kb.Do(context.Background(), 2, []float32{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close (new key) = %v, want ErrClosed", err)
	}
}
