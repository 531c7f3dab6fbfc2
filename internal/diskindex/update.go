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
	buf     []byte // one logical bucket block
	headBuf []byte // second block, for delete's head swap
	table   []byte // one physical block, for a table-entry rewrite
}

// scratchLocked returns the scratch sized for this index's layout.
func (u *updState) scratchLocked(ix *Index) *updateScratch {
	sc := &u.scratch
	p := ix.params
	if len(sc.proj) < p.L*p.M {
		sc.proj = make([]float64, p.L*p.M)
	}
	if len(sc.hashes) < p.L {
		sc.hashes = make([]uint32, p.L)
	}
	if len(sc.buf) < ix.bucketBufBytes() {
		sc.buf = make([]byte, ix.bucketBufBytes())
		sc.headBuf = make([]byte, ix.bucketBufBytes())
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
// entry, so re-applying an already-applied record is a no-op per chain —
// the idempotence that makes multi-block inserts atomic under replay.
func (ix *Index) applyInsertLocked(id uint32, v []float32, idem bool) error {
	u := ix.upd
	sc := u.scratchLocked(ix)
	switch {
	case int(id) == len(ix.data):
		ix.data = append(ix.data, v)
	case int(id) < len(ix.data):
		// Replaying a record whose vector already made it into the dataset;
		// the chain-level idempotence below sorts out the entries.
	default:
		return fmt.Errorf("diskindex: insert record for ID %d skips past %d resident objects", id, len(ix.data))
	}
	p := ix.params
	if ix.opts.ShareProjections {
		ix.families[0].Project(v, sc.proj)
	}
	for r := 0; r < p.R(); r++ {
		fam := ix.FamilyFor(r)
		if !ix.opts.ShareProjections {
			fam.Project(v, sc.proj)
		}
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
// the add when idem is set and the entry is already present in the chain.
//
//lsh:hotpath
func (ix *Index) insertEntryLocked(r, l int, idx, id, fp uint32, idem bool) error {
	buf := ix.upd.scratch.buf
	head, err := ix.loadTableEntry(r, l, idx, buf)
	if err != nil {
		return err
	}
	if head != blockstore.Nil {
		if idem {
			packed := ix.packEntry(id, fp)
			for addr := head; addr != blockstore.Nil; {
				if err := ix.readLogicalBlock(addr, buf, nil); err != nil {
					return err
				}
				next, count := bucketHeader(buf)
				for i := 0; i < count; i++ {
					if getUint40(buf[HeaderBytes+i*EntryBytes:]) == packed {
						return nil // already applied
					}
				}
				addr = next
			}
		}
		// Try to append into the head block.
		if err := ix.readLogicalBlock(head, buf, nil); err != nil {
			return err
		}
		_, count := bucketHeader(buf)
		if count < ix.entriesPerBlock {
			off := HeaderBytes + count*EntryBytes
			putUint40(buf[off:], ix.packEntry(id, fp))
			binary.LittleEndian.PutUint16(buf[8:10], uint16(count+1))
			return ix.writeLogicalBlock(head, buf[:ix.bucketBytes])
		}
	}
	// Prepend a fresh head block chaining to the old head.
	clear(buf)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(head))
	binary.LittleEndian.PutUint16(buf[8:10], 1)
	putUint40(buf[HeaderBytes:], ix.packEntry(id, fp))
	newHead := ix.store.AllocateRange(uint64(ix.physPerBucket))
	if err := ix.writeLogicalBlock(newHead, buf[:ix.bucketBytes]); err != nil {
		return err
	}
	if err := ix.storeTableEntryLocked(r, l, idx, newHead); err != nil {
		return err
	}
	ix.setOccupied(r, l, idx)
	return nil
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
	if ix.opts.ShareProjections {
		ix.families[0].Project(v, sc.proj)
	}
	removedAny := false
	for r := 0; r < p.R(); r++ {
		fam := ix.FamilyFor(r)
		if !ix.opts.ShareProjections {
			fam.Project(v, sc.proj)
		}
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
	head, err := ix.loadTableEntry(r, l, idx, buf)
	if err != nil || head == blockstore.Nil {
		return false, err
	}
	// Locate the entry.
	addr := head
	for addr != blockstore.Nil {
		if err := ix.readLogicalBlock(addr, buf, nil); err != nil {
			return false, err
		}
		next, count := bucketHeader(buf)
		for i := 0; i < count; i++ {
			off := HeaderBytes + i*EntryBytes
			eid, efp := ix.unpackEntry(getUint40(buf[off:]))
			if eid != id || efp != fp {
				continue
			}
			// Found: replace with the last entry of the head block.
			if err := ix.readLogicalBlock(head, headBuf, nil); err != nil {
				return false, err
			}
			_, headCount := bucketHeader(headBuf)
			lastOff := HeaderBytes + (headCount-1)*EntryBytes
			if addr == head {
				// Same block: move its own last entry into the hole.
				copy(buf[off:off+EntryBytes], buf[lastOff:lastOff+EntryBytes])
				binary.LittleEndian.PutUint16(buf[8:10], uint16(count-1))
				return true, ix.finishHeadShrink(r, l, idx, head, buf, count-1)
			}
			copy(buf[off:off+EntryBytes], headBuf[lastOff:lastOff+EntryBytes])
			if err := ix.writeLogicalBlock(addr, buf[:ix.bucketBytes]); err != nil {
				return false, err
			}
			binary.LittleEndian.PutUint16(headBuf[8:10], uint16(headCount-1))
			return true, ix.finishHeadShrink(r, l, idx, head, headBuf, headCount-1)
		}
		addr = next
	}
	return false, nil
}

// finishHeadShrink writes back a head block whose count dropped by one,
// unlinking it when it became empty.
func (ix *Index) finishHeadShrink(r, l int, idx uint32, head blockstore.Addr, buf []byte, newCount int) error {
	if newCount > 0 {
		return ix.writeLogicalBlock(head, buf[:ix.bucketBytes])
	}
	// Head emptied: point the table at the rest of the chain (the emptied
	// block itself is leaked — deletion is lazy, as documented).
	next, _ := bucketHeader(buf)
	if err := ix.storeTableEntryLocked(r, l, idx, next); err != nil {
		return err
	}
	if next == blockstore.Nil {
		ix.clearOccupied(r, l, idx)
	}
	return nil
}

// loadTableEntry reads the bucket head address of (r, l, idx). buf must be
// at least one block long.
func (ix *Index) loadTableEntry(r, l int, idx uint32, buf []byte) (blockstore.Addr, error) {
	blk, off := ix.tableEntryBlock(r, l, idx)
	if err := ix.readBlock(blk, buf[:blockstore.BlockSize], nil); err != nil {
		return 0, err
	}
	return blockstore.Addr(binary.LittleEndian.Uint64(buf[off : off+8])), nil
}

// storeTableEntryLocked rewrites one bucket head address in the table
// region. The caller holds the update lock exclusively, so the block goes
// through the updater's scratch: a local array would escape to the heap on
// every one of an insert's table rewrites.
func (ix *Index) storeTableEntryLocked(r, l int, idx uint32, head blockstore.Addr) error {
	blk, off := ix.tableEntryBlock(r, l, idx)
	buf := ix.upd.scratch.table
	if err := ix.readBlock(blk, buf, nil); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[off:off+8], uint64(head))
	if err := ix.store.WriteBlock(blk, buf); err != nil {
		return err
	}
	ix.cacheInvalidate(blk)
	return nil
}

func (ix *Index) clearOccupied(r, l int, idx uint32) {
	ix.occupied[r][l][idx>>6] &^= 1 << (idx & 63)
}
