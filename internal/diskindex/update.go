package diskindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/lsh"
	"e2lshos/internal/wal"
)

// Online updates (§7 of the paper): the paper notes that "the impact of
// object insertion and deletion is small" compared to full rebuilds, which
// consume SSD endurance. This file implements both operations directly on
// the block layout and keeps the build's packing (see the package doc):
//
//   - Insert adds the object's entry to each of its L·r buckets. A packed
//     bucket whose range ends its block's fill appends in place while the
//     block has room. Otherwise its entries and the new one move to the tail
//     of the open update block, packed like the build's blocks (next = Nil,
//     count = fill), and its old range is left dead. A bucket that fills a
//     block becomes a chain, as does an empty bucket: a chain's head takes
//     entries in place until it is full, then a fresh head is prepended —
//     one block write per (radius, table) pair, never a rebuild.
//   - Delete removes the object's entries in place, filling the hole with
//     the last entry of the bucket's range, or of its chain's head. A range
//     that ends its block's fill hands the vacated entry back to the block;
//     a chain head that empties is unlinked.
//   - Blocks that a delete empties and unlinks go on an in-memory free list,
//     which the next prepend or update block takes from before the store
//     grows.
//
// No bucket's entries or their order depend on where the bucket lives, so
// every bucket reads the blocks, and holds the entries in the order, that
// one block per bucket would. The free list, the open update block and the
// count of dead entries are runtime state: an image keeps free blocks and
// dead ranges as unreferenced bytes, and an index opened from it starts with
// none.
//
// Updates are safe concurrently with queries: every mutation holds the
// index's update lock exclusively and every searcher holds it shared for
// the duration of one query, so a query observes each insert either fully
// applied across all L·R chains or not at all — never a torn chain.
//
// With a WAL attached (InitWAL / OpenWAL in recovery.go), updates are also
// durable: the logical record is appended (and group-commit fsynced) to the
// log BEFORE any block is touched, so the ack implies recoverability and a
// crash mid-apply replays the record to completion on reopen.

// updState is the index's mutation state: the update lock, the write-ahead
// log and recovery bookkeeping, and the pooled scratch buffers that keep
// the insert path allocation-free.
type updState struct {
	mu sync.RWMutex

	wal        *wal.Log       //lsh:guardedby mu
	dir        string         //lsh:guardedby mu — WAL directory ("" when none)
	gen        uint64         //lsh:guardedby mu — manifest generation
	extN       int            //lsh:guardedby mu — caller-supplied vectors; ids ≥ extN checkpoint into the tail sidecar
	fsyncEvery int            //lsh:guardedby mu
	crash      wal.CrashPoint //lsh:guardedby mu

	replayed  int   //lsh:guardedby mu — records replayed at open
	tornTail  bool  //lsh:guardedby mu
	tornBytes int64 //lsh:guardedby mu
	inserts   int64 //lsh:guardedby mu — applied this process
	deletes   int64 //lsh:guardedby mu

	// The packing's runtime state: blocks that deletes emptied and
	// unlinked, the update block that moved buckets are packed into (Nil
	// when none is open), and the packed entries no slot names any more.
	free []blockstore.Addr //lsh:guardedby mu
	open blockstore.Addr   //lsh:guardedby mu
	dead int64             //lsh:guardedby mu

	scratch updateScratch //lsh:guardedby mu
}

// updateScratch pools the update path's working memory, replacing the
// per-call make()s the first implementation paid on every Insert.
type updateScratch struct {
	proj   []float64
	hashes []uint32
	buf    []byte // one bucket block
	buf2   []byte // a second: the update block a bucket moves to, or a chain's head
	table  []byte // one table block, for a table-entry rewrite
}

// scratchLocked returns the scratch, allocated on first use.
func (u *updState) scratchLocked(ix *Index) *updateScratch {
	sc := &u.scratch
	p := ix.params
	if len(sc.proj) < p.L*p.M {
		sc.proj = make([]float64, p.L*p.M)
	}
	if len(sc.hashes) < p.L {
		sc.hashes = make([]uint32, p.L)
	}
	if sc.buf == nil {
		sc.buf = make([]byte, blockstore.BlockSize)
		sc.buf2 = make([]byte, blockstore.BlockSize)
		sc.table = make([]byte, blockstore.BlockSize)
	}
	return sc
}

// Insert adds a vector to the index and the resident database, returning
// its object ID. The index must have been built with headroom in its ID
// space: inserts fail once n reaches 2^idBits. With a WAL attached the
// record is durable before Insert returns nil; an apply error after a
// successful append leaves the record in the log, so the insert surfaces
// as an error now but completes on recovery (never partially visible).
func (ix *Index) Insert(v []float32) (uint32, error) {
	ix.checkDim(v)
	u := ix.upd
	u.mu.Lock()
	defer u.mu.Unlock()
	id := uint32(len(ix.data))
	if uint64(id) >= uint64(1)<<ix.idBits {
		return 0, fmt.Errorf("diskindex: ID space exhausted (%d bits); rebuild with a larger dataset", ix.idBits)
	}
	if u.wal != nil {
		if err := u.wal.Append(wal.Record{Type: wal.RecordInsert, ID: id, Vec: v}); err != nil {
			return 0, fmt.Errorf("diskindex: insert %d not logged: %w", id, err)
		}
	}
	if err := ix.applyInsertLocked(id, v, false); err != nil {
		return 0, err
	}
	u.inserts++
	return id, nil
}

// applyInsertLocked hashes v and adds its entry to every (radius, table)
// chain. With idem set (WAL replay) each chain is first scanned for the
// entry when the object is already resident, so re-applying an
// already-applied record is a no-op per chain — the idempotence that makes
// multi-block inserts atomic under replay. A fresh object (id is the next
// ID) skips the scan: a store just loaded from its checkpoint image holds
// entries only for the objects resident when the image was taken.
func (ix *Index) applyInsertLocked(id uint32, v []float32, idem bool) error {
	u := ix.upd
	sc := u.scratchLocked(ix)
	switch {
	case int(id) == len(ix.data):
		ix.data = append(ix.data, v)
		idem = false
	case int(id) < len(ix.data):
		// Replaying a record whose vector already made it into the dataset;
		// the chain-level idempotence below sorts out the entries.
	default:
		return fmt.Errorf("diskindex: insert record for ID %d skips past %d resident objects", id, len(ix.data))
	}
	p := ix.params
	fam := ix.Family()
	fam.Project(v, sc.proj)
	for r := 0; r < p.R(); r++ {
		fam.HashesAt(sc.proj, p.Radii[r], sc.hashes)
		for l := 0; l < p.L; l++ {
			idx, fp := lsh.SplitHash(sc.hashes[l], ix.u)
			if err := ix.insertEntryLocked(r, l, idx, id, fp, idem); err != nil {
				return err
			}
		}
	}
	return nil
}

// insertEntryLocked adds one object info to bucket (r, l, idx), skipping
// the add when idem is set and the entry is already present in the bucket.
//
//lsh:hotpath
func (ix *Index) insertEntryLocked(r, l int, idx, id, fp uint32, idem bool) error {
	buf := ix.upd.scratch.buf
	sl, err := ix.loadTableEntry(r, l, idx, buf)
	if err != nil {
		return err
	}
	entry := ix.packEntry(id, fp)
	if idem {
		for w := sl; w.addr != blockstore.Nil; {
			if err := ix.readBlock(w.addr, buf, nil); err != nil {
				return err
			}
			next, lo, hi := w.span(buf)
			for i := lo; i < hi; i++ {
				if getUint40(buf[HeaderBytes+i*EntryBytes:]) == entry {
					return nil // already applied
				}
			}
			w = slot{addr: next}
		}
	}
	switch {
	case sl.addr == blockstore.Nil:
		return ix.prependLocked(r, l, idx, blockstore.Nil, entry)
	case sl.count == 0:
		return ix.insertChainLocked(r, l, idx, sl.addr, entry)
	}
	return ix.insertPackedLocked(r, l, idx, sl, entry)
}

// insertPackedLocked adds entry to the packed bucket sl: in place when its
// range ends its block's fill and the block has room, else by moving it. A
// bucket of entriesPerBlock entries fills its block alone, and that block
// (next = Nil, count = fill) becomes the second of a chain as it stands.
func (ix *Index) insertPackedLocked(r, l int, idx uint32, sl slot, entry uint64) error {
	u := ix.upd
	buf := u.scratch.buf
	if err := ix.readBlock(sl.addr, buf, nil); err != nil {
		return err
	}
	_, fill := bucketHeader(buf)
	switch {
	case sl.off+sl.count == fill && fill < entriesPerBlock:
		putUint40(buf[HeaderBytes+fill*EntryBytes:], entry)
		binary.LittleEndian.PutUint16(buf[8:10], uint16(fill+1))
		if err := ix.writeBucketBlock(sl.addr, buf); err != nil {
			return err
		}
		sl.count++
		return ix.storeTableEntryLocked(r, l, idx, sl)
	case sl.count == entriesPerBlock:
		if u.open == sl.addr {
			u.open = blockstore.Nil
		}
		return ix.prependLocked(r, l, idx, sl.addr, entry)
	}
	return ix.moveLocked(r, l, idx, sl, buf, entry)
}

// moveLocked packs bucket sl's entries, which src (its block) holds, and
// entry after them at the tail of the update block, opening a fresh one
// when the open one lacks room, and repoints the slot. The old range is
// left dead.
func (ix *Index) moveLocked(r, l int, idx uint32, sl slot, src []byte, entry uint64) error {
	u := ix.upd
	dst := u.scratch.buf2
	fill := entriesPerBlock // no update block is open
	switch u.open {
	case blockstore.Nil:
	case sl.addr:
		copy(dst, src)
		_, fill = bucketHeader(dst)
	default:
		if err := ix.readBlock(u.open, dst, nil); err != nil {
			return err
		}
		_, fill = bucketHeader(dst)
	}
	if fill+sl.count+1 > entriesPerBlock {
		u.open, fill = ix.allocLocked(), 0
		clear(dst)
	}
	at := dst[HeaderBytes+fill*EntryBytes:]
	n := copy(at, src[HeaderBytes+sl.off*EntryBytes:HeaderBytes+(sl.off+sl.count)*EntryBytes])
	putUint40(at[n:], entry)
	binary.LittleEndian.PutUint16(dst[8:10], uint16(fill+sl.count+1))
	if err := ix.writeBucketBlock(u.open, dst); err != nil {
		return err
	}
	u.dead += int64(sl.count)
	return ix.storeTableEntryLocked(r, l, idx, slot{addr: u.open, off: fill, count: sl.count + 1})
}

// insertChainLocked adds entry to the chain headed at head: in the head block
// while it has room, else in a fresh head prepended to the chain.
func (ix *Index) insertChainLocked(r, l int, idx uint32, head blockstore.Addr, entry uint64) error {
	buf := ix.upd.scratch.buf
	if err := ix.readBlock(head, buf, nil); err != nil {
		return err
	}
	if _, count := bucketHeader(buf); count < entriesPerBlock {
		putUint40(buf[HeaderBytes+count*EntryBytes:], entry)
		binary.LittleEndian.PutUint16(buf[8:10], uint16(count+1))
		return ix.writeBucketBlock(head, buf)
	}
	return ix.prependLocked(r, l, idx, head, entry)
}

// prependLocked makes a block holding only entry the head of bucket (r, l,
// idx)'s chain, linked to next (Nil for a bucket that was empty).
func (ix *Index) prependLocked(r, l int, idx uint32, next blockstore.Addr, entry uint64) error {
	buf := ix.upd.scratch.buf
	clear(buf)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(next))
	binary.LittleEndian.PutUint16(buf[8:10], 1)
	putUint40(buf[HeaderBytes:], entry)
	head := ix.allocLocked()
	if err := ix.writeBucketBlock(head, buf); err != nil {
		return err
	}
	if err := ix.storeTableEntryLocked(r, l, idx, slot{addr: head}); err != nil {
		return err
	}
	ix.setOccupied(r, l, idx)
	return nil
}

// allocLocked takes a block for a chain head or an update block: the one a
// delete freed last, else a new one from the store.
func (ix *Index) allocLocked() blockstore.Addr {
	u := ix.upd
	if n := len(u.free); n > 0 {
		a := u.free[n-1]
		u.free = u.free[:n-1]
		return a
	}
	return ix.store.Allocate()
}

// ErrUnknownID is wrapped by Delete's error when the ID was never assigned.
var ErrUnknownID = errors.New("unknown ID")

// Delete removes the object with the given ID from every bucket. The
// object's vector must still be resident (it is needed to locate its
// buckets); the caller should treat the ID as retired afterwards. It
// reports whether any entry was removed.
func (ix *Index) Delete(id uint32) (bool, error) {
	u := ix.upd
	u.mu.Lock()
	defer u.mu.Unlock()
	if int(id) >= len(ix.data) {
		return false, fmt.Errorf("diskindex: delete of %w %d", ErrUnknownID, id)
	}
	if u.wal != nil {
		if err := u.wal.Append(wal.Record{Type: wal.RecordDelete, ID: id}); err != nil {
			return false, fmt.Errorf("diskindex: delete %d not logged: %w", id, err)
		}
	}
	removed, err := ix.applyDeleteLocked(id)
	if err != nil {
		return removed, err
	}
	u.deletes++
	return removed, nil
}

// applyDeleteLocked removes id's entries from every chain it hashes into.
// Naturally idempotent: a chain that no longer holds the entry is left
// unchanged, so WAL replay can re-apply freely.
func (ix *Index) applyDeleteLocked(id uint32) (bool, error) {
	v := ix.data[id]
	u := ix.upd
	sc := u.scratchLocked(ix)
	p := ix.params
	fam := ix.Family()
	fam.Project(v, sc.proj)
	removedAny := false
	for r := 0; r < p.R(); r++ {
		fam.HashesAt(sc.proj, p.Radii[r], sc.hashes)
		for l := 0; l < p.L; l++ {
			idx, fp := lsh.SplitHash(sc.hashes[l], ix.u)
			if !ix.isOccupied(r, l, idx) {
				continue
			}
			removed, err := ix.deleteEntryLocked(r, l, idx, id, fp)
			if err != nil {
				return removedAny, err
			}
			removedAny = removedAny || removed
		}
	}
	return removedAny, nil
}

// deleteEntryLocked removes the (id, fp) object info from bucket (r, l,
// idx), reporting whether the bucket held it.
func (ix *Index) deleteEntryLocked(r, l int, idx, id, fp uint32) (bool, error) {
	sl, err := ix.loadTableEntry(r, l, idx, ix.upd.scratch.buf)
	if err != nil || sl.addr == blockstore.Nil {
		return false, err
	}
	entry := ix.packEntry(id, fp)
	if sl.count == 0 {
		return ix.deleteChainLocked(r, l, idx, sl.addr, entry)
	}
	return ix.deletePackedLocked(r, l, idx, sl, entry)
}

// deletePackedLocked removes entry from the packed bucket sl in its block:
// the range's own last entry moves into the hole and the slot's count drops
// by one, clearing the slot and its occupancy bit at zero. A range that ends
// its block's fill hands the vacated entry back to the block; any other
// leaves it dead. A block whose fill reaches zero holds nothing any slot
// names and goes on the free list, unless it is the open update block.
func (ix *Index) deletePackedLocked(r, l int, idx uint32, sl slot, entry uint64) (bool, error) {
	u := ix.upd
	buf := u.scratch.buf
	if err := ix.readBlock(sl.addr, buf, nil); err != nil {
		return false, err
	}
	last := sl.off + sl.count - 1
	for i := sl.off; i <= last; i++ {
		off := HeaderBytes + i*EntryBytes
		if getUint40(buf[off:]) != entry {
			continue
		}
		lastOff := HeaderBytes + last*EntryBytes
		copy(buf[off:off+EntryBytes], buf[lastOff:lastOff+EntryBytes])
		_, fill := bucketHeader(buf)
		if last == fill-1 {
			fill = last
			binary.LittleEndian.PutUint16(buf[8:10], uint16(fill))
		} else {
			u.dead++
		}
		if err := ix.writeBucketBlock(sl.addr, buf); err != nil {
			return false, err
		}
		if fill == 0 && sl.addr != u.open {
			u.free = append(u.free, sl.addr)
		}
		if sl.count--; sl.count == 0 {
			sl = slot{}
			ix.clearOccupied(r, l, idx)
		}
		return true, ix.storeTableEntryLocked(r, l, idx, sl)
	}
	return false, nil
}

// deleteChainLocked removes entry from the chain headed at head by moving the
// last entry of the head block into the hole.
func (ix *Index) deleteChainLocked(r, l int, idx uint32, head blockstore.Addr, entry uint64) (bool, error) {
	sc := &ix.upd.scratch
	buf, headBuf := sc.buf, sc.buf2
	for addr := head; addr != blockstore.Nil; {
		if err := ix.readBlock(addr, buf, nil); err != nil {
			return false, err
		}
		next, count := bucketHeader(buf)
		for i := 0; i < count; i++ {
			off := HeaderBytes + i*EntryBytes
			if getUint40(buf[off:]) != entry {
				continue
			}
			if addr == head {
				// Same block: move its own last entry into the hole.
				lastOff := HeaderBytes + (count-1)*EntryBytes
				copy(buf[off:off+EntryBytes], buf[lastOff:lastOff+EntryBytes])
				binary.LittleEndian.PutUint16(buf[8:10], uint16(count-1))
				return true, ix.shrinkHeadLocked(r, l, idx, head, buf, count-1)
			}
			// Found deeper in the chain: replace it with the head's last entry.
			if err := ix.readBlock(head, headBuf, nil); err != nil {
				return false, err
			}
			_, headCount := bucketHeader(headBuf)
			lastOff := HeaderBytes + (headCount-1)*EntryBytes
			copy(buf[off:off+EntryBytes], headBuf[lastOff:lastOff+EntryBytes])
			if err := ix.writeBucketBlock(addr, buf); err != nil {
				return false, err
			}
			binary.LittleEndian.PutUint16(headBuf[8:10], uint16(headCount-1))
			return true, ix.shrinkHeadLocked(r, l, idx, head, headBuf, headCount-1)
		}
		addr = next
	}
	return false, nil
}

// shrinkHeadLocked writes back a chain's head block whose count dropped to
// count, or, when it emptied, points the slot at the rest of the chain and
// puts the head on the free list.
func (ix *Index) shrinkHeadLocked(r, l int, idx uint32, head blockstore.Addr, buf []byte, count int) error {
	if count > 0 {
		return ix.writeBucketBlock(head, buf)
	}
	next, _ := bucketHeader(buf)
	if err := ix.storeTableEntryLocked(r, l, idx, slot{addr: next}); err != nil {
		return err
	}
	ix.upd.free = append(ix.upd.free, head)
	if next == blockstore.Nil {
		ix.clearOccupied(r, l, idx)
	}
	return nil
}

// loadTableEntry reads the slot of (r, l, idx) through buf, one block long.
func (ix *Index) loadTableEntry(r, l int, idx uint32, buf []byte) (slot, error) {
	blk, off := ix.tableEntryBlock(r, l, idx)
	if err := ix.readBlock(blk, buf, nil); err != nil {
		return slot{}, err
	}
	return decodeSlot(binary.LittleEndian.Uint64(buf[off : off+8])), nil
}

// storeTableEntryLocked rewrites one slot in the table region. The caller
// holds the update lock exclusively, so the block goes through the updater's
// scratch: a local array would escape to the heap on every one of an
// insert's table rewrites.
func (ix *Index) storeTableEntryLocked(r, l int, idx uint32, sl slot) error {
	blk, off := ix.tableEntryBlock(r, l, idx)
	buf := ix.upd.scratch.table
	if err := ix.readBlock(blk, buf, nil); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[off:off+8], sl.encode())
	if err := ix.store.WriteBlock(blk, buf); err != nil {
		return err
	}
	ix.cacheInvalidate(blk)
	return nil
}

func (ix *Index) clearOccupied(r, l int, idx uint32) {
	ix.occupied[r][l][idx>>6] &^= 1 << (idx & 63)
}
