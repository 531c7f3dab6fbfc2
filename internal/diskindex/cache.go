package diskindex

import (
	"context"
	"encoding/binary"

	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/lsh"
)

// This file is the index's read seam. Every wall-clock read — both
// searchers, online updates, the invariant checker — goes through readOne
// (one block), which has exactly two bodies: the attached ioengine, or the
// block store read in line on the calling goroutine; with an engine
// attached, the WaveSearcher's waves go through readBatch. Queue depth, the
// block cache, retries, coalescing, sharing one read among a wave's
// duplicates and readahead all live inside the engine; without one the
// index runs at depth 1 with none of them. The virtual-time engine (sim.go)
// gives the WaveSearcher its own read hook in place of readBatch: it models
// the paper's raw-device experiments, where §6.5's page cache is a
// simulation of its own.

// AttachIOEngine routes the index's reads through the shared vectored I/O
// engine, which must wrap this index's store. With readahead > 0 and a cache
// inside the engine, the searchers additionally prefetch the next radius
// round's occupied table blocks and up to readahead bucket blocks per chain
// while the current round is being verified. Attach before issuing queries;
// the write path (Insert/Delete) keeps the engine's cache coherent by
// invalidating every block it rewrites.
func (ix *Index) AttachIOEngine(eng *ioengine.Engine, readahead int) {
	ix.ioeng = eng
	ix.readahead = 0
	if eng != nil && eng.Cache() != nil {
		ix.readahead = readahead
	}
}

// IOEngine returns the attached I/O engine (nil when unattached).
func (ix *Index) IOEngine() *ioengine.Engine { return ix.ioeng }

// Cache returns the attached engine's block cache (nil when uncached).
func (ix *Index) Cache() *blockcache.Cache {
	if ix.ioeng == nil {
		return nil
	}
	return ix.ioeng.Cache()
}

// readOne reads one block through the attached engine or, without
// one, straight from the store. Demand reads always run to completion; query
// cancellation stays at its documented radius-round granularity.
//
//lsh:hotpath
func (ix *Index) readOne(a blockstore.Addr, buf []byte, bst *ioengine.BatchStats) error {
	if ix.ioeng == nil {
		return ix.store.ReadBlock(a, buf)
	}
	return ix.ioeng.Read(a, buf, bst)
}

// readBlock is readOne for the block-at-a-time callers (the reference
// searcher, updates, the invariant checker), folding the engine's outcome
// into st (which may be nil on untracked paths).
func (ix *Index) readBlock(a blockstore.Addr, buf []byte, st *Stats) error {
	var bs ioengine.BatchStats
	if err := ix.readOne(a, buf, &bs); err != nil {
		return err
	}
	foldBatchStats(st, bs)
	return nil
}

// readBatch reads one wave through the attached engine, which must exist:
// addrs[i] into dsts[i]. It returns ok == nil when every block arrived;
// after a storage fault ok[i] reports whether block i is intact, so the
// caller drops only the chains that are actually unreadable. Any other
// error aborts.
//
// The wave goes out as one vectored submission (coalescing, in-wave dedup,
// queue depth), which the engine runs to completion like readOne. Behind a
// wave-level storage fault the block-at-a-time loop below re-reads the wave:
// the engine already cached every healthy block of the failed wave and
// quarantined the condemned addresses, so the re-reads are cache hits or
// fast fails, not a second trip through the backoff ladder.
//
//lsh:hotpath
func (ix *Index) readBatch(addrs []blockstore.Addr, dsts [][]byte, bst *ioengine.BatchStats) ([]bool, error) {
	//lsh:ctxok the engine runs a wave to completion; cancellation is round-granular
	err := ix.ioeng.ReadBatch(context.Background(), addrs, dsts, bst)
	if !storageFault(err) {
		return nil, err
	}
	var ok []bool
	for i, a := range addrs {
		err := ix.readOne(a, dsts[i], bst)
		if err == nil {
			continue
		}
		if !storageFault(err) {
			return nil, err
		}
		if ok == nil {
			//lsh:allocok fault path: per-block verdicts exist only after a failed read
			ok = make([]bool, len(addrs))
			for j := range ok {
				ok[j] = true
			}
		}
		ok[i] = false
	}
	return ok, nil
}

// foldBatchStats merges one engine call's outcome counters into st.
func foldBatchStats(st *Stats, bs ioengine.BatchStats) {
	if st == nil {
		return
	}
	st.CacheHits += bs.CacheHits
	st.CacheMisses += bs.CacheMisses
	st.PhysicalReads += bs.PhysicalReads
	st.DedupedReads += bs.DedupedReads
	st.CoalescedReads += bs.CoalescedReads
}

// cacheInvalidate drops a rewritten block from the engine's cache.
func (ix *Index) cacheInvalidate(a blockstore.Addr) {
	if c := ix.Cache(); c != nil {
		c.Invalidate(a)
	}
}

// prefetchRound starts readahead for round rIdx given its compound hashes:
// one walk per occupied bucket over the table block, the block its slot
// names, and up to the configured depth of chain blocks, submitted to the
// engine as vectored waves (all table blocks in one batch, then each chain
// depth level in one batch). It returns immediately; the searcher folds the
// handle in when it reaches the round. Callers check ix.readahead > 0
// first: only then is an engine with a cache attached.
func (ix *Index) prefetchRound(ctx context.Context, rIdx int, hashes []uint32) *blockcache.Handle {
	walks := make([]blockcache.Walk, 0, len(hashes))
	for l, h := range hashes {
		idx, _ := lsh.SplitHash(h, ix.u)
		if !ix.isOccupied(rIdx, l, idx) {
			continue
		}
		blk, off := ix.tableEntryBlock(rIdx, l, idx)
		walks = append(walks, blockcache.Walk{
			Start: blk,
			Steps: 1 + ix.readahead,
			Next: func(step int, block []byte) blockstore.Addr {
				if step == 0 {
					// The table block: decode this bucket's first block.
					return decodeSlot(binary.LittleEndian.Uint64(block[off : off+8])).addr
				}
				// A bucket block: follow the chain link in its header (Nil
				// in a packed block).
				return blockstore.Addr(binary.LittleEndian.Uint64(block[0:8]))
			},
		})
	}
	return ix.ioeng.Prefetch(ctx, walks)
}
