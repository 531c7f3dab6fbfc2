package blockcache

import (
	"sync/atomic"

	"e2lshos/internal/blockstore"
)

// Walk describes one pointer chase to prefetch: a start address plus a step
// function that decodes, from the block just fetched, the next address to
// fetch. The cache stays layout-agnostic — diskindex supplies closures that
// know where a table entry's head pointer and a bucket header's next pointer
// live.
type Walk struct {
	// Start is the first block of the chase (a hash-table block).
	Start blockstore.Addr
	// Steps bounds the walk length including Start, so one runaway chain
	// cannot monopolize the readahead.
	Steps int
	// Next returns the next address given the step number just completed
	// (0 for Start) and that block's contents, or blockstore.Nil to stop.
	// It runs on the readahead goroutine; it must not retain block.
	Next func(step int, block []byte) blockstore.Addr
}

// Handle tracks one prefetch's completion. The readahead implementation
// (ioengine's vectored waves) creates one through NewHandle per Prefetch
// call; the searcher that asked settles it with Wait.
type Handle struct {
	done    chan struct{}
	fetched atomic.Int64
}

// NewHandle returns an in-progress handle: call Add per block brought into
// the cache and Finish exactly once when the walk set drains.
func NewHandle() *Handle {
	return &Handle{done: make(chan struct{})}
}

// Add records n blocks brought into the cache.
func (h *Handle) Add(n int64) { h.fetched.Add(n) }

// Finish marks the prefetch complete, releasing Wait callers.
func (h *Handle) Finish() { close(h.done) }

// CompletedHandle returns the shared already-finished empty handle, for
// readahead calls with nothing to do.
func CompletedHandle() *Handle { return noopHandle }

// Wait blocks until every walk finished or gave up (context canceled) and
// returns the number of blocks actually brought into the cache (hits on
// already-resident blocks are free and not counted).
func (h *Handle) Wait() int64 {
	<-h.done
	return h.fetched.Load()
}

// Done reports completion without blocking.
func (h *Handle) Done() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// noopHandle is returned for empty walk sets so callers can Wait
// unconditionally.
var noopHandle = func() *Handle {
	h := NewHandle()
	h.Finish()
	return h
}()
