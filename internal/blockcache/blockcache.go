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
// Memory: each stripe's blocks, address index and list links live in one
// slab from internal/offheap, sized at New, so on unix the cache is no Go
// heap. Slots are filled in order and nothing writes a slot before its first
// fill, so resident memory grows with the blocks cached.
//
// Concurrency: the cache is lock-striped over N shards keyed by block
// address; all methods are safe for concurrent use. Hit/miss/prefetch
// counters are atomics so the serving layer can read them live.
package blockcache

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/offheap"
)

// Options tune cache construction.
type Options struct {
	// Shards is the number of lock stripes (0 = DefaultShards). Tests that
	// assert eviction order use 1 to make the policy deterministic.
	Shards int
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
	slab   []byte // every stripe's regions; unmapped when c is collected

	hits       atomic.Int64
	misses     atomic.Int64
	prefetched atomic.Int64
}

// mappedBytes counts the bytes of cache slabs mapped outside the Go heap.
var mappedBytes atomic.Int64

// A stripe's three lists, each a circular chain of node ids through its own
// sentinel node: the protected main LRU (front = most recent), the
// probationary FIFO first-touch blocks land in (2Q's A1in), and the ghost
// FIFO of recently evicted probationary addresses (2Q's A1out), from which a
// re-reference promotes straight to main.
const (
	listMain = iota
	listIn
	listOut
)

// shard is one lock stripe: a 2Q structure that degrades to plain LRU when
// inCap is zero. Nodes [0, capBlocks) are slots holding one block each,
// [capBlocks, capBlocks+outCap) are ghosts holding only an address, and the
// lists' three sentinels follow.
type shard struct {
	mu     sync.Mutex
	blocks []byte            //lsh:guardedby mu
	addr   []blockstore.Addr //lsh:guardedby mu
	index  []int32           //lsh:guardedby mu (linear probing: 0 empty, else node+1; grows within cap)
	prev   []int32           //lsh:guardedby mu
	next   []int32           //lsh:guardedby mu (also chains a pool's free nodes)
	inMain []bool            //lsh:guardedby mu
	n      [3]int32          //lsh:guardedby mu (per list: its length)
	slots  pool              //lsh:guardedby mu
	ghosts pool              //lsh:guardedby mu

	capBlocks, inCap, outCap int32
}

// pool hands out one range of node ids: freed ones first, then unused ones
// in order.
type pool struct{ base, used, free int32 }

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
	totalBlocks := capacityBytes / blockstore.BlockSize
	for shards > 1 && totalBlocks/int64(shards) < 1 {
		shards /= 2
	}
	if totalBlocks/int64(shards) > math.MaxInt32/4 {
		return nil, fmt.Errorf("blockcache: capacity %d bytes is above %d blocks per shard", capacityBytes, math.MaxInt32/4)
	}
	// Kin = 1/4 of the shard, Kout = 1/2 — the 2Q paper's tuning; a shard
	// too small for a split is plain LRU.
	per := int32(totalBlocks / int64(shards))
	inCap, outCap := max(per/4, 1), max(per/2, 1)
	if inCap >= per {
		inCap, outCap = 0, 0
	}
	nodes, tableLen := int(per+outCap+3), 1<<bits.Len(uint(2*(per+outCap)-1))
	stripe := (int(per)*(blockstore.BlockSize+1) + nodes*16 + tableLen*4 + 7) &^ 7
	slab, err := offheap.Alloc(shards * stripe)
	if err != nil {
		return nil, fmt.Errorf("blockcache: %w", err)
	}
	c := &Cache{shards: make([]shard, shards), mask: uint64(shards - 1), slab: slab}
	for i := range c.shards {
		b := slab[i*stripe:]
		c.shards[i] = shard{ // regions in order of alignment
			blocks:    carve[byte](&b, int(per)*blockstore.BlockSize),
			addr:      carve[blockstore.Addr](&b, nodes),
			index:     carve[int32](&b, tableLen)[:min(tableLen, 64)],
			prev:      carve[int32](&b, nodes),
			next:      carve[int32](&b, nodes),
			inMain:    carve[bool](&b, int(per)),
			slots:     pool{free: -1},
			ghosts:    pool{base: per, free: -1},
			capBlocks: per, inCap: inCap, outCap: outCap,
		}
		s := &c.shards[i]
		for l := int32(0); l < 3; l++ {
			s.next[s.sentinel(l)], s.prev[s.sentinel(l)] = s.sentinel(l), s.sentinel(l) //lsh:nolock not yet published
		}
	}
	if offheap.Mapped {
		// Every method that touches the slab ends with runtime.KeepAlive(c).
		mappedBytes.Add(int64(len(slab)))
		runtime.SetFinalizer(c, func(c *Cache) {
			if offheap.Free(c.slab) == nil {
				mappedBytes.Add(-int64(len(c.slab)))
			}
		})
	}
	return c, nil
}

// carve views the front of *b as n values of T and advances *b past them.
func carve[T any](b *[]byte, n int) []T {
	v := unsafe.Slice((*T)(unsafe.Pointer(&(*b)[0])), n)
	*b = (*b)[n*int(unsafe.Sizeof(v[0])):]
	return v
}

// shardFor stripes addresses with a multiplicative hash so contiguous table
// regions spread across stripes.
func (c *Cache) shardFor(a blockstore.Addr) *shard {
	return &c.shards[(uint64(a)*0x9e3779b97f4a7c15)>>32&c.mask]
}

// CapacityBlocks returns the total block capacity across shards.
func (c *Cache) CapacityBlocks() int { return len(c.shards) * int(c.shards[0].capBlocks) }

// Len returns the number of resident blocks.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += int(s.n[listMain] + s.n[listIn])
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
	_, n := s.findLocked(a)
	ok := n >= 0 && n < s.capBlocks
	if ok {
		copy(buf[:blockstore.BlockSize], s.blockLocked(n))
		s.touchLocked(n)
	}
	s.mu.Unlock()
	runtime.KeepAlive(c)
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
	runtime.KeepAlive(c)
}

// putLocked inserts under the shard lock, which the caller holds.
func (s *shard) putLocked(a blockstore.Addr, data []byte) {
	pos, n := s.findLocked(a)
	switch {
	case n >= 0 && n < s.capBlocks:
		copy(s.blockLocked(n), data[:blockstore.BlockSize])
		s.touchLocked(n)
	case s.inCap == 0:
		s.evictMainLocked(s.capBlocks - 1)
		s.insertLocked(a, data, listMain)
	case n >= 0: // re-referenced after probationary eviction: hot
		s.dropLocked(pos, n)
		s.evictMainLocked(s.capBlocks - s.n[listIn] - 1)
		s.insertLocked(a, data, listMain)
	default: // first touch: probation, whose oldest blocks become ghosts
		for s.n[listIn] >= s.inCap {
			if s.n[listOut] >= s.outCap {
				g := s.prev[s.sentinel(listOut)]
				gpos, _ := s.findLocked(s.addr[g])
				s.dropLocked(gpos, g)
			}
			old := s.prev[s.sentinel(listIn)]
			opos, _ := s.findLocked(s.addr[old])
			s.unlinkLocked(listIn, old)
			s.slots.put(s.next, old)
			g := s.ghosts.take(s.next)
			s.addr[g], s.index[opos] = s.addr[old], g+1
			s.linkLocked(listOut, g)
		}
		s.evictMainLocked(s.capBlocks - s.inCap) // main keeps to what probation leaves
		s.insertLocked(a, data, listIn)
	}
}

// touchLocked records a hit on slot n. 2Q reorders main only: a block in
// probation proves itself by being re-referenced after its eviction.
func (s *shard) touchLocked(n int32) {
	if s.inMain[n] {
		s.unlinkLocked(listMain, n)
		s.linkLocked(listMain, n)
	}
}

// insertLocked fills a free slot with block a, absent from the index, at
// the front of list l.
func (s *shard) insertLocked(a blockstore.Addr, data []byte, l int32) {
	if 2*int(s.n[listMain]+s.n[listIn]+s.n[listOut]+1) > len(s.index) {
		s.growLocked()
	}
	n := s.slots.take(s.next)
	s.addr[n], s.inMain[n] = a, l == listMain
	copy(s.blockLocked(n), data[:blockstore.BlockSize])
	pos, _ := s.findLocked(a)
	s.index[pos] = n + 1
	s.linkLocked(l, n)
}

// growLocked doubles the index within the region New reserved and
// re-inserts every node on the three lists, so the index, like the slots,
// touches memory as entries arrive and stays at most half full.
func (s *shard) growLocked() {
	s.index = s.index[:2*len(s.index)]
	clear(s.index)
	for l := int32(0); l < 3; l++ {
		for n := s.next[s.sentinel(l)]; n != s.sentinel(l); n = s.next[n] {
			pos, _ := s.findLocked(s.addr[n])
			s.index[pos] = n + 1
		}
	}
}

// evictMainLocked trims the main LRU down to limit entries.
func (s *shard) evictMainLocked(limit int32) {
	for s.n[listMain] > max(limit, 0) {
		old := s.prev[s.sentinel(listMain)]
		pos, _ := s.findLocked(s.addr[old])
		s.dropLocked(pos, old)
	}
}

// dropLocked forgets node n, found at index position pos.
func (s *shard) dropLocked(pos uint64, n int32) {
	s.unindexLocked(pos)
	switch {
	case n >= s.capBlocks:
		s.unlinkLocked(listOut, n)
		s.ghosts.put(s.next, n)
	case s.inMain[n]:
		s.unlinkLocked(listMain, n)
		s.slots.put(s.next, n)
	default:
		s.unlinkLocked(listIn, n)
		s.slots.put(s.next, n)
	}
}

// Invalidate drops block a if resident, or forgets it as a ghost, so
// writers keep the cache coherent.
func (c *Cache) Invalidate(a blockstore.Addr) {
	s := c.shardFor(a)
	s.mu.Lock()
	if pos, n := s.findLocked(a); n >= 0 {
		s.dropLocked(pos, n)
	}
	s.mu.Unlock()
	runtime.KeepAlive(c)
}

func (s *shard) blockLocked(n int32) []byte {
	return s.blocks[int(n)*blockstore.BlockSize : int(n+1)*blockstore.BlockSize]
}

// homeLocked is a's first index position: the product's top log2(len(index))
// bits, which the stripe bits shardFor takes do not overlap.
func (s *shard) homeLocked(a blockstore.Addr) uint64 {
	return (uint64(a) * 0x9e3779b97f4a7c15) >> bits.LeadingZeros64(uint64(len(s.index)-1))
}

// findLocked returns the index position holding a and its node, or the
// empty position a would take and -1.
func (s *shard) findLocked(a blockstore.Addr) (uint64, int32) {
	mask := uint64(len(s.index) - 1)
	for i := s.homeLocked(a); ; i = (i + 1) & mask {
		if e := s.index[i]; e == 0 || s.addr[e-1] == a {
			return i, e - 1
		}
	}
}

// unindexLocked empties index position pos and shifts the later entries of
// its probe run back into the gap, so the index needs no tombstones.
func (s *shard) unindexLocked(pos uint64) {
	mask := uint64(len(s.index) - 1)
	for j := (pos + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		if (j-s.homeLocked(s.addr[s.index[j]-1]))&mask >= (j-pos)&mask {
			s.index[pos], pos = s.index[j], j
		}
	}
	s.index[pos] = 0
}

func (s *shard) sentinel(l int32) int32 { return s.capBlocks + s.outCap + l }

// linkLocked puts node n at the front of list l.
func (s *shard) linkLocked(l, n int32) {
	h := s.sentinel(l)
	s.next[n], s.prev[n] = s.next[h], h
	s.prev[s.next[h]], s.next[h] = n, n
	s.n[l]++
}

func (s *shard) unlinkLocked(l, n int32) {
	s.next[s.prev[n]], s.prev[s.next[n]] = s.next[n], s.prev[n]
	s.n[l]--
}

func (p *pool) take(next []int32) int32 {
	if n := p.free; n >= 0 {
		p.free = next[n]
		return n
	}
	p.used++
	return p.base + p.used - 1
}

func (p *pool) put(next []int32, n int32) { next[n], p.free = p.free, n }

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
