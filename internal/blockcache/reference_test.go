package blockcache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"

	"e2lshos/internal/blockstore"
)

// refCache is the reference policy the slab cache must match decision for
// decision: 2Q (probationary FIFO, ghost FIFO, main LRU) per stripe over
// container/list and maps, with the same striping hash and the same Kin/Kout
// split, or plain LRU when lru is set. It keeps no block data, only which
// addresses are resident.
type refCache struct {
	shards []refShard
	mask   uint64
}

type refShard struct {
	main, in, out *list.List // of refEntry, refEntry, blockstore.Addr
	table, ghosts map[blockstore.Addr]*list.Element
	capBlocks     int
	inCap, outCap int
}

type refEntry struct {
	addr blockstore.Addr
	main bool
}

// newRefCache mirrors New's sizing for capBlocks blocks over shards stripes.
func newRefCache(capBlocks, shards int, lru bool) *refCache {
	for shards > 1 && capBlocks/shards < 1 {
		shards /= 2
	}
	per := capBlocks / shards
	c := &refCache{shards: make([]refShard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		s := &c.shards[i]
		s.main, s.in, s.out = list.New(), list.New(), list.New()
		s.table, s.ghosts = map[blockstore.Addr]*list.Element{}, map[blockstore.Addr]*list.Element{}
		s.capBlocks = per
		if !lru {
			s.inCap, s.outCap = max(per/4, 1), max(per/2, 1)
			if s.inCap >= per {
				s.inCap = 0
			}
		}
	}
	return c
}

func (c *refCache) shardFor(a blockstore.Addr) *refShard {
	return &c.shards[(uint64(a)*0x9e3779b97f4a7c15)>>32&c.mask]
}

func (c *refCache) Len() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].main.Len() + c.shards[i].in.Len()
	}
	return n
}

func (c *refCache) resident(a blockstore.Addr) bool {
	_, ok := c.shardFor(a).table[a]
	return ok
}

func (c *refCache) Get(a blockstore.Addr, _ []byte) bool {
	s := c.shardFor(a)
	el, ok := s.table[a]
	if ok && el.Value.(*refEntry).main {
		s.main.MoveToFront(el)
	}
	return ok
}

func (c *refCache) Put(a blockstore.Addr, _ []byte) {
	s := c.shardFor(a)
	if el, ok := s.table[a]; ok {
		if el.Value.(*refEntry).main {
			s.main.MoveToFront(el)
		}
		return
	}
	e := &refEntry{addr: a}
	if s.inCap == 0 {
		s.evictMain(s.capBlocks - 1)
		s.table[a] = s.main.PushFront(e)
		e.main = true
		return
	}
	if gel, ok := s.ghosts[a]; ok {
		s.out.Remove(gel)
		delete(s.ghosts, a)
		s.evictMain(s.capBlocks - s.in.Len() - 1)
		s.table[a] = s.main.PushFront(e)
		e.main = true
		return
	}
	for s.in.Len() >= s.inCap {
		oldest := s.in.Back()
		old := oldest.Value.(*refEntry)
		s.in.Remove(oldest)
		delete(s.table, old.addr)
		s.ghosts[old.addr] = s.out.PushFront(old.addr)
		for s.out.Len() > s.outCap {
			gb := s.out.Back()
			delete(s.ghosts, gb.Value.(blockstore.Addr))
			s.out.Remove(gb)
		}
	}
	s.evictMain(s.capBlocks - s.inCap)
	s.table[a] = s.in.PushFront(e)
}

func (s *refShard) evictMain(limit int) {
	for s.main.Len() > max(limit, 0) {
		oldest := s.main.Back()
		s.main.Remove(oldest)
		delete(s.table, oldest.Value.(*refEntry).addr)
	}
}

func (c *refCache) Invalidate(a blockstore.Addr) {
	s := c.shardFor(a)
	if el, ok := s.table[a]; ok {
		if el.Value.(*refEntry).main {
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
}

// resident reports whether a is cached, without touching the policy.
func (c *Cache) resident(a blockstore.Addr) bool {
	s := c.shardFor(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, n := s.findLocked(a)
	return n >= 0 && n < s.capBlocks
}

// TestMatchesReferencePolicy replays seeded random streams of Get, Put,
// PutPrefetched and Invalidate on the cache and on the reference 2Q, on 1
// and 16 stripes and capacities from one block per stripe (plain LRU) up:
// every Get must hit or miss alike and serve the block's own bytes, and
// after every operation Len and the resident set must agree.
func TestMatchesReferencePolicy(t *testing.T) {
	for _, shards := range []int{1, 16} {
		for _, capBlocks := range []int{1, 2, 3, 5, 16, 64, 300} {
			t.Run(fmt.Sprintf("shards=%d/cap=%d", shards, capBlocks), func(t *testing.T) {
				c, err := New(int64(capBlocks)*blockstore.BlockSize, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefCache(capBlocks, shards, false)
				if c.CapacityBlocks() != len(ref.shards)*ref.shards[0].capBlocks {
					t.Fatalf("capacity %d blocks, reference %d", c.CapacityBlocks(), len(ref.shards)*ref.shards[0].capBlocks)
				}
				// An address space of ~3x the capacity, with a hot quarter,
				// so every path runs: hits in both lists, ghost promotions,
				// evictions from all three lists, invalidated ghosts.
				space := 3*capBlocks + 4
				rng := rand.New(rand.NewSource(int64(shards*1000 + capBlocks)))
				buf := make([]byte, blockstore.BlockSize)
				for op := 0; op < 5000; op++ {
					a := blockstore.Addr(rng.Intn(space) + 1)
					if rng.Intn(2) == 0 {
						a = blockstore.Addr(rng.Intn(space/4+1) + 1)
					}
					switch k := rng.Intn(10); {
					case k < 5:
						hit, want := c.Get(a, buf), ref.Get(a, nil)
						if hit != want {
							t.Fatalf("op %d: Get(%d) hit=%v, reference %v", op, a, hit, want)
						}
						if hit {
							checkBlock(t, a, buf)
						}
					case k < 9:
						fill(a, buf)
						if k == 8 {
							c.PutPrefetched(a, buf)
						} else {
							c.Put(a, buf)
						}
						ref.Put(a, nil)
					default:
						c.Invalidate(a)
						ref.Invalidate(a)
					}
					if c.Len() != ref.Len() {
						t.Fatalf("op %d: Len %d, reference %d", op, c.Len(), ref.Len())
					}
					for b := blockstore.Addr(1); b <= blockstore.Addr(space); b++ {
						if c.resident(b) != ref.resident(b) {
							t.Fatalf("op %d: block %d resident=%v, reference %v", op, b, c.resident(b), ref.resident(b))
						}
					}
				}
			})
		}
	}
}
