package coalesce

import (
	"context"
	"sync"
)

// KeyedFunc executes one coalesced batch for a single key. The returned
// slice must align positionally with queries.
type KeyedFunc[K comparable, R any] func(ctx context.Context, key K, queries [][]float32) ([]R, error)

// Keyed coalesces concurrent Do calls into batched executions that are
// key-pure: every cut batch contains queries of exactly one key. Keys model
// incompatible per-request tuning (fanout, multi-probe, recall target …) —
// queries that cannot share one engine BatchSearch call must not share a
// batch. Sub-batchers are created lazily per key and all share one admitter,
// so MaxQueue bounds admitted-but-unanswered queries and Slots bounds
// executing batches across the whole family, not per key, and a freed
// execution slot goes to the key whose oldest query has waited longest.
type Keyed[K comparable, R any] struct {
	run KeyedFunc[K, R]
	cfg Config
	adm *admitter[R]

	mu     sync.Mutex
	subs   map[K]*Batcher[R] //lsh:guardedby mu
	closed bool              //lsh:guardedby mu
}

// NewKeyed builds a keyed batcher that executes run for every cut batch.
func NewKeyed[K comparable, R any](run KeyedFunc[K, R], cfg Config) *Keyed[K, R] {
	cfg = cfg.withDefaults()
	return &Keyed[K, R]{
		run:  run,
		cfg:  cfg,
		adm:  newAdmitter[R](cfg),
		subs: make(map[K]*Batcher[R]),
	}
}

// Do admits one query under key and waits for its key-pure batch; semantics
// otherwise match Batcher.Do.
func (kb *Keyed[K, R]) Do(ctx context.Context, key K, q []float32) (R, error) {
	kb.mu.Lock()
	if kb.closed {
		kb.mu.Unlock()
		var zero R
		return zero, ErrClosed
	}
	sub, ok := kb.subs[key]
	if !ok {
		k := key
		sub = newShared(func(ctx context.Context, queries [][]float32) ([]R, error) {
			return kb.run(ctx, k, queries)
		}, kb.cfg, kb.adm)
		kb.subs[key] = sub
	}
	kb.mu.Unlock()
	return sub.Do(ctx, q)
}

// Shed returns how many calls were refused with ErrOverloaded across all
// keys.
func (kb *Keyed[K, R]) Shed() uint64 { return kb.adm.shedCount() }

// Load returns the admitted-but-unanswered query count and the queue bound
// across all keys.
func (kb *Keyed[K, R]) Load() (inflight, max int) { return kb.adm.load() }

// Panics returns how many batch executions were recovered from panics
// across all keys.
func (kb *Keyed[K, R]) Panics() uint64 { return kb.adm.panicCount() }

// Executing returns how many batches are executing right now across all
// keys, at most Slots.
func (kb *Keyed[K, R]) Executing() int { return kb.adm.executingCount() }

// Batches returns how many batches have been cut across all keys and how
// many queries they held.
func (kb *Keyed[K, R]) Batches() (batches, queries uint64) { return kb.adm.batchCounts() }

// MaxBatch returns the largest batch a cut takes.
func (kb *Keyed[K, R]) MaxBatch() int { return kb.cfg.MaxBatch }

// Close stops admission and closes every sub-batcher, waiting for their
// admitted queries — executing or queued — to be answered.
func (kb *Keyed[K, R]) Close() {
	kb.mu.Lock()
	if kb.closed {
		kb.mu.Unlock()
		return
	}
	kb.closed = true
	subs := make([]*Batcher[R], 0, len(kb.subs))
	for _, sub := range kb.subs {
		subs = append(subs, sub)
	}
	kb.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}
