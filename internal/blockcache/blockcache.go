// Package blockcache is the production caching tier of the storage path: a
// concurrency-safe, sharded block cache that sits between the query engines
// and a blockstore backend, plus the walk and handle types (prefetch.go) of
// the readahead that ioengine runs to warm the cache ahead of the radius
// ladder.
//
// The paper's §6.5 shows the naive mmap baseline suffering a 93% page-cache
// miss rate because a general-purpose LRU sees E2LSH's access stream as pure
// random reads. This cache is index-aware in one structural way: it offers
// 2Q-style scan resistance, so one cold radius-ladder sweep (a long chain of
// blocks touched exactly once) cannot evict the hot working set of table
// blocks and head buckets that repeated or skewed query workloads live on.
//
// Concurrency: the cache is lock-striped over N shards keyed by block
// address; all methods are safe for concurrent use. Hit/miss/prefetch
// counters are atomics so the serving layer can read them live.
package blockcache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"e2lshos/internal/blockstore"
)

// Policy selects the per-shard replacement policy.
type Policy int

const (
	// TwoQ is the default: a probationary FIFO in front of a main LRU with a
	// ghost queue, so single-touch scans never displace re-referenced blocks.
	TwoQ Policy = iota
	// LRU is a plain least-recently-used list. It has the stack (inclusion)
	// property, which the cachesweep experiment relies on for monotone miss
	// rates, but a long scan can flush it.
	LRU
)

// String names the policy.
func (p Policy) String() string {
	if p == LRU {
		return "lru"
	}
	return "2q"
}

// Options tune cache construction. The zero value selects 2Q with an
// automatic shard count.
type Options struct {
	// Shards is the number of lock stripes (0 = DefaultShards). Tests that
	// assert eviction order use 1 to make the policy deterministic.
	Shards int
	// Policy selects TwoQ (default) or plain LRU replacement.
	Policy Policy
}

// DefaultShards is the lock-stripe count used when Options.Shards is zero:
// enough to keep a batch worker pool from serializing on one mutex without
// fragmenting small caches.
const DefaultShards = 16

// Cache is a sharded block cache. Create with New; the zero value is not
// usable.
type Cache struct {
	shards []shard
	mask   uint64

	hits       atomic.Int64
	misses     atomic.Int64
	prefetched atomic.Int64
}

// entry is one resident block.
type entry struct {
	addr blockstore.Addr
	data [blockstore.BlockSize]byte
	main bool // resident in the main LRU (vs the probationary FIFO)
}

// shard is one lock stripe: a 2Q structure that degrades to plain LRU when
// inCap is zero.
type shard struct {
	mu sync.Mutex
	// main is the protected LRU (front = most recent).
	main *list.List //lsh:guardedby mu
	// in is the probationary FIFO first-touch blocks land in (2Q's A1in).
	in *list.List //lsh:guardedby mu
	// out is the ghost FIFO of recently evicted probationary addresses
	// (2Q's A1out): a re-reference found here promotes straight to main.
	out *list.List //lsh:guardedby mu
	// table maps resident addresses to their main/in node; ghosts maps
	// evicted-but-remembered addresses to their out node.
	table  map[blockstore.Addr]*list.Element //lsh:guardedby mu
	ghosts map[blockstore.Addr]*list.Element //lsh:guardedby mu

	capBlocks int // main + in capacity
	inCap     int // probationary share (0 = plain LRU)
	outCap    int // ghost entries remembered
}

// New creates a cache holding up to capacityBytes of 512-byte blocks spread
// over the configured shards. Capacities below one block per shard are
// rejected so every stripe can hold at least something.
func New(capacityBytes int64, opts Options) (*Cache, error) {
	if capacityBytes < blockstore.BlockSize {
		return nil, fmt.Errorf("blockcache: capacity %d bytes is below one %d-byte block",
			capacityBytes, blockstore.BlockSize)
	}
	shards := opts.Shards
	if shards == 0 {
		shards = DefaultShards
	}
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("blockcache: shard count %d must be a positive power of two", shards)
	}
	totalBlocks := int(capacityBytes / blockstore.BlockSize)
	for shards > 1 && totalBlocks/shards < 1 {
		shards /= 2
	}
	perShard := totalBlocks / shards
	c := &Cache{shards: make([]shard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		s := &c.shards[i]
		s.main = list.New()                                         //lsh:nolock cache not yet published
		s.in = list.New()                                           //lsh:nolock cache not yet published
		s.out = list.New()                                          //lsh:nolock cache not yet published
		s.table = make(map[blockstore.Addr]*list.Element, perShard) //lsh:nolock cache not yet published
		s.ghosts = make(map[blockstore.Addr]*list.Element)          //lsh:nolock cache not yet published
		s.capBlocks = perShard
		if opts.Policy == TwoQ {
			// Kin = 1/4 of the shard, Kout = 1/2 — the 2Q paper's tuning.
			s.inCap = max(perShard/4, 1)
			s.outCap = max(perShard/2, 1)
			if s.inCap >= perShard {
				s.inCap = 0 // too small for a split; behave as LRU
			}
		}
	}
	return c, nil
}

// shardFor stripes addresses with a multiplicative hash so contiguous table
// regions spread across stripes.
func (c *Cache) shardFor(a blockstore.Addr) *shard {
	return &c.shards[(uint64(a)*0x9e3779b97f4a7c15)>>32&c.mask]
}

// CapacityBlocks returns the total block capacity across shards.
func (c *Cache) CapacityBlocks() int {
	total := 0
	for i := range c.shards {
		total += c.shards[i].capBlocks
	}
	return total
}

// Len returns the number of resident blocks.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.main.Len() + s.in.Len()
		s.mu.Unlock()
	}
	return total
}

// Get copies block a into buf if resident and reports whether it was (a
// hit). It does not touch the source on a miss.
func (c *Cache) Get(a blockstore.Addr, buf []byte) bool {
	if c.get(a, buf) {
		c.hits.Add(1)
		return true
	}
	c.misses.Add(1)
	return false
}

// get is Get without counter updates: the prefetcher probes through it so
// Hits/Misses stay pure demand-traffic counters.
//
//lsh:hotpath
func (c *Cache) get(a blockstore.Addr, buf []byte) bool {
	s := c.shardFor(a)
	s.mu.Lock()
	el, ok := s.table[a]
	if ok {
		e := el.Value.(*entry)
		copy(buf[:blockstore.BlockSize], e.data[:])
		if e.main {
			s.main.MoveToFront(el)
		}
		// 2Q: a hit in the probationary FIFO does not reorder it; the block
		// proves itself by surviving until re-reference after eviction, or
		// it is already protected in main.
	}
	s.mu.Unlock()
	return ok
}

// PeekQuiet is Get without counter updates: readahead implementations probe
// through it so Hits/Misses stay pure demand-traffic counters.
func (c *Cache) PeekQuiet(a blockstore.Addr, buf []byte) bool {
	return c.get(a, buf)
}

// PutPrefetched inserts block a and counts it as prefetched, the insert path
// of readahead implementations living outside this package (ioengine).
func (c *Cache) PutPrefetched(a blockstore.Addr, data []byte) {
	c.Put(a, data)
	c.prefetched.Add(1)
}

// Put inserts (or refreshes) block a with data, evicting per policy.
func (c *Cache) Put(a blockstore.Addr, data []byte) {
	s := c.shardFor(a)
	s.mu.Lock()
	s.putLocked(a, data)
	s.mu.Unlock()
}

// putLocked inserts under the shard lock, which the caller holds.
func (s *shard) putLocked(a blockstore.Addr, data []byte) {
	if el, ok := s.table[a]; ok {
		e := el.Value.(*entry)
		copy(e.data[:], data[:blockstore.BlockSize])
		if e.main {
			s.main.MoveToFront(el)
		}
		return
	}
	e := &entry{addr: a}
	copy(e.data[:], data[:blockstore.BlockSize])
	if s.inCap == 0 {
		// Plain LRU.
		s.evictMainLocked(s.capBlocks - 1)
		s.table[a] = s.main.PushFront(e)
		e.main = true
		return
	}
	if gel, ok := s.ghosts[a]; ok {
		// Re-referenced after probationary eviction: hot, goes to main.
		s.out.Remove(gel)
		delete(s.ghosts, a)
		s.evictMainLocked(s.capBlocks - s.in.Len() - 1)
		s.table[a] = s.main.PushFront(e)
		e.main = true
		return
	}
	// First touch: probationary FIFO.
	for s.in.Len() >= s.inCap {
		oldest := s.in.Back()
		old := oldest.Value.(*entry)
		s.in.Remove(oldest)
		delete(s.table, old.addr)
		// Remember it as a ghost.
		s.ghosts[old.addr] = s.out.PushFront(old.addr)
		for s.out.Len() > s.outCap {
			gb := s.out.Back()
			delete(s.ghosts, gb.Value.(blockstore.Addr))
			s.out.Remove(gb)
		}
	}
	// Keep main within the space the FIFO does not use.
	s.evictMainLocked(s.capBlocks - s.inCap)
	s.table[a] = s.in.PushFront(e)
}

// evictMainLocked trims the main LRU down to limit entries; the caller
// holds the shard lock.
func (s *shard) evictMainLocked(limit int) {
	if limit < 0 {
		limit = 0
	}
	for s.main.Len() > limit {
		oldest := s.main.Back()
		s.main.Remove(oldest)
		delete(s.table, oldest.Value.(*entry).addr)
	}
}

// Invalidate drops block a if resident, so writers keep the cache coherent.
func (c *Cache) Invalidate(a blockstore.Addr) {
	s := c.shardFor(a)
	s.mu.Lock()
	if el, ok := s.table[a]; ok {
		e := el.Value.(*entry)
		if e.main {
			s.main.Remove(el)
		} else {
			s.in.Remove(el)
		}
		delete(s.table, a)
	}
	if gel, ok := s.ghosts[a]; ok {
		s.out.Remove(gel)
		delete(s.ghosts, a)
	}
	s.mu.Unlock()
}

// Hits returns the cumulative hit count.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the cumulative miss count. Every miss is one read that
// reached the backend — the effective N_IO of a cached workload.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Prefetched returns how many blocks the readahead pool pulled in.
func (c *Cache) Prefetched() int64 { return c.prefetched.Load() }

// MissRate returns misses/(hits+misses), the cachesweep experiment's y-axis.
func (c *Cache) MissRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(m) / float64(h+m)
}
