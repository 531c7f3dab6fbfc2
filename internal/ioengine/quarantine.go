package ioengine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"e2lshos/internal/blockstore"
)

// quarantine is the bounded set of addresses that exhausted their retry
// budget. Repeated queries touching a dead block fail fast against it —
// one map probe — instead of re-paying the full backoff ladder per query.
// The set is FIFO-bounded: past the limit the oldest entrant is released
// (and gets a fresh chance at its next read), so a long-degraded device
// cannot grow the set without bound. The n fast path keeps the empty case
// (every healthy engine, always) at one atomic load per vectored run.
type quarantine struct {
	n atomic.Int32

	mu    sync.Mutex
	m     map[blockstore.Addr]error //lsh:guardedby mu — addr -> the error that condemned it
	order []blockstore.Addr         //lsh:guardedby mu — FIFO eviction order
}

// check returns the fail-fast error for a quarantined address, nil
// otherwise.
func (q *quarantine) check(a blockstore.Addr) error {
	if q.n.Load() == 0 {
		return nil
	}
	q.mu.Lock()
	cause, ok := q.m[a]
	q.mu.Unlock()
	if !ok {
		return nil
	}
	return fmt.Errorf("ioengine: block %d quarantined after exhausted retries: %w", a, cause)
}

// containsAny reports whether any of addrs is quarantined.
func (q *quarantine) containsAny(addrs []blockstore.Addr) bool {
	if q.n.Load() == 0 {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, a := range addrs {
		if _, ok := q.m[a]; ok {
			return true
		}
	}
	return false
}

// add condemns a with its last error, evicting the oldest entry at the
// limit.
func (q *quarantine) add(a blockstore.Addr, cause error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.m == nil {
		q.m = make(map[blockstore.Addr]error)
	}
	if _, ok := q.m[a]; ok {
		q.m[a] = cause
		return
	}
	for len(q.m) >= quarantineLimit && len(q.order) > 0 {
		old := q.order[0]
		q.order = q.order[1:]
		delete(q.m, old)
	}
	q.m[a] = cause
	q.order = append(q.order, a)
	q.n.Store(int32(len(q.m)))
}

// len returns the current set size.
func (q *quarantine) len() int { return int(q.n.Load()) }
