package diskindex

import (
	"fmt"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/memindex"
)

// Structural audit of the on-storage index, used by the crash-recovery
// property tests and available to operators as a post-recovery fsck. It
// recomputes every resident object's compound hashes and walks every chain,
// so it is O(n·L·R) hashing plus a full index scan — a deliberate, paid-for
// exhaustiveness that test-sized indexes afford.

// CheckInvariants verifies the block layout against the DRAM metadata and
// the hash functions:
//
//   - a bucket's occupancy bit is set iff its slot names a block;
//   - a chain slot has offset 0; a packed slot's range [off, off+count) lies
//     within its block's fill, and that block's header says next = Nil;
//   - chains are acyclic and every block's entry count is in [1,
//     entriesPerBlock] (empty heads are unlinked, never persisted);
//   - no entry of a block belongs to two buckets: packed ranges sharing a
//     block do not overlap, and no bucket reaches into another's chain;
//   - every entry's ID names a resident object, and the entry sits in
//     exactly the bucket (low u bits) with exactly the fingerprint (high
//     bits) of that object's recomputed compound hash;
//   - no bucket holds the same object twice.
//
// A torn insert — some of an object's L·R entries present, others not —
// does NOT trip this check (each chain is locally consistent); that
// atomicity property is EntryCounts' to verify.
func (ix *Index) CheckInvariants() error {
	u := ix.upd
	u.mu.RLock()
	defer u.mu.RUnlock()
	p := ix.params
	keys, err := memindex.HashKeys(ix.data, ix.families, p, true)
	if err != nil {
		return err
	}
	defer keys.FreeAll()
	numBuckets := uint32(1) << ix.u
	mask := numBuckets - 1
	buf := make([]byte, blockstore.BlockSize)
	maxSteps := int(ix.store.NumBlocks()) + 1
	seenInChain := make(map[uint32]bool)
	// claimed[a][i] is set once a bucket has claimed entry i of block a.
	claimed := make(map[blockstore.Addr][]bool)
	for r := 0; r < p.R(); r++ {
		for l := 0; l < p.L; l++ {
			hashes := keys.Table(r, l)
			for idx := uint32(0); idx < numBuckets; idx++ {
				sl, err := ix.loadTableEntry(r, l, idx, buf)
				if err != nil {
					return err
				}
				if occ := ix.isOccupied(r, l, idx); occ != (sl.addr != blockstore.Nil) {
					return fmt.Errorf("diskindex: bucket (%d,%d,%d): occupancy bit %v but slot %+v", r, l, idx, occ, sl)
				}
				if sl.count == 0 && sl.off != 0 {
					return fmt.Errorf("diskindex: bucket (%d,%d,%d): chain slot with offset %d", r, l, idx, sl.off)
				}
				clear(seenInChain)
				steps := 0
				for w := sl; w.addr != blockstore.Nil; {
					if steps++; steps > maxSteps {
						return fmt.Errorf("diskindex: bucket (%d,%d,%d): chain cycle", r, l, idx)
					}
					if err := ix.readBlock(w.addr, buf, nil); err != nil {
						return err
					}
					next, count := bucketHeader(buf)
					if count < 1 || count > entriesPerBlock {
						return fmt.Errorf("diskindex: bucket (%d,%d,%d) block %d: entry count %d outside [1,%d]",
							r, l, idx, w.addr, count, entriesPerBlock)
					}
					if w.count > 0 && (next != blockstore.Nil || w.off+w.count > count) {
						return fmt.Errorf("diskindex: bucket (%d,%d,%d): packed range [%d,%d) in block %d of %d entries linking to %d",
							r, l, idx, w.off, w.off+w.count, w.addr, count, next)
					}
					_, lo, hi := w.span(buf)
					marks := claimed[w.addr]
					if marks == nil {
						marks = make([]bool, entriesPerBlock)
						claimed[w.addr] = marks
					}
					for i := lo; i < hi; i++ {
						if marks[i] {
							return fmt.Errorf("diskindex: bucket (%d,%d,%d): entry %d of block %d overlaps another bucket",
								r, l, idx, i, w.addr)
						}
						marks[i] = true
						id, fp := ix.unpackEntry(getUint40(buf[HeaderBytes+i*EntryBytes:]))
						if int(id) >= len(ix.data) {
							return fmt.Errorf("diskindex: bucket (%d,%d,%d): entry names unknown ID %d", r, l, idx, id)
						}
						h := hashes[id]
						if h&mask != idx {
							return fmt.Errorf("diskindex: object %d hashed to bucket %d but found in (%d,%d,%d)",
								id, h&mask, r, l, idx)
						}
						if h>>ix.u != fp {
							return fmt.Errorf("diskindex: object %d in (%d,%d,%d): fingerprint %#x, recomputed %#x",
								id, r, l, idx, fp, h>>ix.u)
						}
						if seenInChain[id] {
							return fmt.Errorf("diskindex: object %d appears twice in chain (%d,%d,%d)", id, r, l, idx)
						}
						seenInChain[id] = true
					}
					w = slot{addr: next}
				}
			}
		}
	}
	return nil
}

// EntryCounts scans every bucket and returns, per object ID, how many index
// entries reference it. A fully indexed object has exactly L·R entries (one
// per (radius, table) bucket) and a fully deleted one has zero, so the map
// exposes torn multi-block updates: any other count is a partially visible
// insert or delete.
func (ix *Index) EntryCounts() (map[uint32]int, error) {
	counts := make(map[uint32]int)
	err := ix.walkBuckets(func(_ bool, block []byte, lo, hi int) {
		for i := lo; i < hi; i++ {
			id, _ := ix.unpackEntry(getUint40(block[HeaderBytes+i*EntryBytes:]))
			counts[id]++
		}
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// walkBuckets reads every block of every occupied bucket, table by table in
// index order, and hands visit each block, whether it is its bucket's first,
// and the range of the bucket's entries in it.
func (ix *Index) walkBuckets(visit func(first bool, block []byte, lo, hi int)) error {
	u := ix.upd
	u.mu.RLock()
	defer u.mu.RUnlock()
	p := ix.params
	numBuckets := uint32(1) << ix.u
	buf := make([]byte, blockstore.BlockSize)
	maxSteps := int(ix.store.NumBlocks()) + 1
	for r := 0; r < p.R(); r++ {
		for l := 0; l < p.L; l++ {
			for idx := uint32(0); idx < numBuckets; idx++ {
				if !ix.isOccupied(r, l, idx) {
					continue
				}
				sl, err := ix.loadTableEntry(r, l, idx, buf)
				if err != nil {
					return err
				}
				steps := 0
				for w := sl; w.addr != blockstore.Nil; {
					if steps++; steps > maxSteps {
						return fmt.Errorf("diskindex: bucket (%d,%d,%d): chain cycle", r, l, idx)
					}
					if err := ix.readBlock(w.addr, buf, nil); err != nil {
						return err
					}
					next, lo, hi := w.span(buf)
					visit(w == sl, buf, lo, hi)
					w = slot{addr: next}
				}
			}
		}
	}
	return nil
}

// UnpackedStorageBytes returns the size this index takes with one block per
// bucket, the paper's layout (Table 6): the table regions plus, per bucket,
// its entries in blocks of entriesPerBlock. It is computed from the buckets'
// entry counts; nothing is built.
func (ix *Index) UnpackedStorageBytes() (int64, error) {
	p := ix.params
	epb := int64(entriesPerBlock)
	var blocks, entries int64
	err := ix.walkBuckets(func(first bool, _ []byte, lo, hi int) {
		if first {
			blocks += (entries + epb - 1) / epb
			entries = 0
		}
		entries += int64(hi - lo)
	})
	if err != nil {
		return 0, err
	}
	blocks += (entries + epb - 1) / epb
	blocks += int64(p.R()*p.L) * int64(ix.expectedTableBlocks())
	return blocks * blockstore.BlockSize, nil
}
