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
// the block layout:
//
//   - Insert appends the object to the head block of each of its L·r
//     buckets, prepending a fresh block when the head is full — one block
//     write per (radius, table) pair, never a rebuild.
//   - Delete removes the object's entries in place by swapping the last
//     entry of the chain head into the vacated slot (lazy: blocks are never
//     reclaimed, matching the paper's advice to rebuild sparingly).
//   - Both copy on write: a bucket still packed into a block it shares with
//     other buckets (see the package doc) is first copied into a chain block
//     of its own, with the same entries in the same order, and its table
//     slot is repointed with one table-block write. The shared block is
//     never written, so the other buckets' bytes stay as built, and every
//     bucket holds the entries, in the order, that one block per bucket
//     would hold.
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

	scratch updateScratch //lsh:guardedby mu
}

// updateScratch pools the update path's working memory, replacing the
// per-call make()s the first implementation paid on every Insert.
type updateScratch struct {
	proj    []float64
	hashes  []uint32
	buf     []byte // one bucket block
	headBuf []byte // second bucket block, for delete's head swap
	table   []byte // one table block, for a table-entry rewrite
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
		sc.headBuf = make([]byte, blockstore.BlockSize)
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
	head := sl.addr
	if head != blockstore.Nil {
		// Try to append into the head block.
		count, err := ix.readHead(sl, buf)
		if err != nil {
			return err
		}
		if count < entriesPerBlock {
			putUint40(buf[HeaderBytes+count*EntryBytes:], entry)
			binary.LittleEndian.PutUint16(buf[8:10], uint16(count+1))
			return ix.writeHead(r, l, idx, sl, buf)
		}
		if sl.count > 0 {
			// A full packed bucket: its copy becomes the chain's second block.
			head = ix.store.Allocate()
			if err := ix.writeBucketBlock(head, buf); err != nil {
				return err
			}
		}
	}
	// Prepend a fresh head block chaining to the old head.
	clear(buf)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(head))
	binary.LittleEndian.PutUint16(buf[8:10], 1)
	putUint40(buf[HeaderBytes:], entry)
	newHead := ix.store.Allocate()
	if err := ix.writeBucketBlock(newHead, buf); err != nil {
		return err
	}
	if err := ix.storeTableEntryLocked(r, l, idx, slot{addr: newHead}); err != nil {
		return err
	}
	ix.setOccupied(r, l, idx)
	return nil
}

// readHead reads the head block of bucket sl into buf and returns its entry
// count. A packed bucket's entries move to the front of buf under a header of
// their own (next = Nil): buf is then the chain block of its own the bucket
// becomes when writeHead writes it.
func (ix *Index) readHead(sl slot, buf []byte) (int, error) {
	if err := ix.readBlock(sl.addr, buf, nil); err != nil {
		return 0, err
	}
	if sl.count == 0 {
		_, count := bucketHeader(buf)
		return count, nil
	}
	n := copy(buf[HeaderBytes:], buf[HeaderBytes+sl.off*EntryBytes:HeaderBytes+(sl.off+sl.count)*EntryBytes])
	clear(buf[HeaderBytes+n:])
	binary.LittleEndian.PutUint64(buf[0:8], uint64(blockstore.Nil))
	binary.LittleEndian.PutUint16(buf[8:10], uint16(sl.count))
	return sl.count, nil
}

// writeHead writes buf as bucket (r, l, idx)'s head block: in place for a
// chain, or, for a packed bucket, to a new block the slot is repointed at
// (copy-on-write).
func (ix *Index) writeHead(r, l int, idx uint32, sl slot, buf []byte) error {
	if sl.count == 0 {
		return ix.writeBucketBlock(sl.addr, buf)
	}
	head := ix.store.Allocate()
	if err := ix.writeBucketBlock(head, buf); err != nil {
		return err
	}
	return ix.storeTableEntryLocked(r, l, idx, slot{addr: head})
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
// idx) by swapping in the last entry of the chain's head block.
func (ix *Index) deleteEntryLocked(r, l int, idx, id, fp uint32) (bool, error) {
	sc := &ix.upd.scratch
	buf, headBuf := sc.buf, sc.headBuf
	sl, err := ix.loadTableEntry(r, l, idx, buf)
	if err != nil || sl.addr == blockstore.Nil {
		return false, err
	}
	entry := ix.packEntry(id, fp)
	// Locate the entry. The head block is read as readHead gives it: a
	// packed bucket is its own copy, the only block of its chain.
	head := sl.addr
	for addr := head; addr != blockstore.Nil; {
		if addr == head {
			_, err = ix.readHead(sl, buf)
		} else {
			err = ix.readBlock(addr, buf, nil)
		}
		if err != nil {
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
				return true, ix.finishHeadShrink(r, l, idx, sl, buf, count-1)
			}
			// Found deeper in a chain: replace it with the head's last entry.
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
			return true, ix.finishHeadShrink(r, l, idx, sl, headBuf, headCount-1)
		}
		addr = next
	}
	return false, nil
}

// finishHeadShrink writes back a head block whose count dropped by one,
// unlinking it when it became empty.
func (ix *Index) finishHeadShrink(r, l int, idx uint32, sl slot, buf []byte, newCount int) error {
	if newCount > 0 {
		return ix.writeHead(r, l, idx, sl, buf)
	}
	// Head emptied: point the table at the rest of the chain (the emptied
	// block itself is leaked — deletion is lazy, as documented).
	next, _ := bucketHeader(buf)
	if err := ix.storeTableEntryLocked(r, l, idx, slot{addr: next}); err != nil {
		return err
	}
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
