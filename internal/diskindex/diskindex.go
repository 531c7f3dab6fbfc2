// Package diskindex implements E2LSH-on-Storage (E2LSHoS), the paper's core
// contribution (§5): the E2LSH hash index adapted to external memory.
//
// Layout (§5.1, Fig 9/10). The index lives in a 512-byte block store. For
// every (search radius, compound hash) pair there is a hash table region —
// an array of 2^u 8-byte slots — plus the bucket blocks. A bucket block is
// one store block: a 16-byte header (8-byte next-block address, 2-byte entry
// count, 6 bytes reserved) followed by up to 99 5-byte object infos. Each
// object info packs the object ID together with the fingerprint: the high
// (32−u) bits of the 32-bit compound hash whose low u bits selected the
// bucket (§5.2), restoring full 32-bit precision at scan time.
//
// A slot names a block address (44 bits), an entry offset and an entry count
// (10 bits each). The build packs each table's buckets into shared blocks in
// index order, first fit, never straddling a block: a packed bucket's slot
// names its block and its entry range, and the block's header says next =
// Nil with the block's fill as count. A bucket longer than one block is a
// chain of blocks of its own, and its slot has count 0 and names the head.
// Either way a probe costs one table-block read plus one read per block of
// the bucket, as with the paper's one block per bucket, at a third of the
// bytes. Online updates keep the packing: a packed bucket changes in place
// or moves its entries to a packed block of the updates' own, and blocks
// that deletes empty are reused (update.go).
//
// DRAM keeps only the table base addresses, per-table occupancy bitmaps
// (so empty buckets cost zero I/O) and the hash functions — the small
// "Index mem" of Table 6.
package diskindex

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/lsh"
	"e2lshos/internal/memindex"
)

const (
	// HeaderBytes is the bucket block header size (§5.1).
	HeaderBytes = 16
	// EntryBytes is the packed object info size (§5.2).
	EntryBytes = 5
	// entriesPerBlock is how many object infos fit one bucket block:
	// (512 − 16)/5 = 99 (§5.1).
	entriesPerBlock = (blockstore.BlockSize - HeaderBytes) / EntryBytes
	// addrsPerTableBlock is how many 8-byte slots fit one block.
	addrsPerTableBlock = blockstore.BlockSize / 8

	// A slot's bit fields: the block address, then the entry offset and the
	// entry count of a packed bucket.
	slotAddrBits  = 44
	slotFieldBits = 10
	// maxBlockEntries masks a packed offset or count out of its field.
	maxBlockEntries = 1<<slotFieldBits - 1
)

// slot is a decoded table entry. With count 0, addr is the head of the
// bucket's chain (Nil for an empty bucket). With count > 0, the bucket is
// entries [off, off+count) of the packed block at addr.
type slot struct {
	addr       blockstore.Addr
	off, count int
}

func decodeSlot(v uint64) slot {
	return slot{
		addr:  blockstore.Addr(v & (1<<slotAddrBits - 1)),
		off:   int(v>>slotAddrBits) & maxBlockEntries,
		count: int(v >> (slotAddrBits + slotFieldBits)),
	}
}

func (s slot) encode() uint64 {
	return uint64(s.addr) | uint64(s.off)<<slotAddrBits | uint64(s.count)<<(slotAddrBits+slotFieldBits)
}

// span returns which entries of block, the bucket block at s.addr, belong to
// the bucket, and the next block of its chain. A packed range beyond the
// block's fill — a zeroed block, as the simulator delivers a failed read —
// holds nothing.
func (s slot) span(block []byte) (next blockstore.Addr, lo, hi int) {
	next, n := bucketHeader(block)
	if s.count == 0 {
		return next, 0, n
	}
	if s.off+s.count > n {
		return blockstore.Nil, 0, 0
	}
	return blockstore.Nil, s.off, s.off + s.count
}

// Options configure index construction. One set of projection vectors
// serves every radius (memindex's ShareProjections, always on here).
type Options struct {
	// Seed drives hash function generation. Equal (params, options, data)
	// produce byte-identical indexes.
	Seed int64
	// TableBits is the paper's u: the hash bits consumed by the table. 0
	// selects automatically (slightly below log2 n, §5.2).
	TableBits uint
}

// DefaultOptions returns the build options used by the experiment harness.
func DefaultOptions() Options {
	return Options{Seed: 1}
}

// autoTableBits picks u slightly below log2 n so buckets average a few block
// entries each, clamped to a practical range.
func autoTableBits(n int) uint {
	lg := uint(bits.Len(uint(n))) // ceil(log2 n)+1-ish; fine for a heuristic
	if lg < 5 {
		lg = 5
	}
	u := lg - 4
	if u < 8 {
		u = 8
	}
	if u > 26 {
		u = 26
	}
	return u
}

// Index is a frozen on-storage E2LSHoS index.
type Index struct {
	params   lsh.Params
	opts     Options
	data     [][]float32
	families []*lsh.Family
	store    *blockstore.Store

	u      uint // table bits
	idBits uint // bits of an object ID inside an object info

	// tableBase[r][l] is the first block of the (r,l) hash table region.
	tableBase [][]blockstore.Addr
	// occupied[r][l] is the 2^u-bit occupancy bitmap kept on DRAM.
	occupied [][][]uint64

	// ioeng, when attached, serves every wall-clock read: bounded queue
	// depth, the block cache, retries, adjacent-block coalescing and one
	// read per block per wave. readahead > 0 additionally prefetches the next
	// radius round's chains through it. See cache.go.
	ioeng     *ioengine.Engine
	readahead int

	// parts splits the objects into that many hash partitions (at least
	// one), each climbing its own radius ladder over one walk of the tables
	// (see internal/ladder). Set before searchers are created.
	parts int

	// upd is the mutation state: the update RWMutex that serializes
	// Insert/Delete against queries, the optional write-ahead log, and the
	// pooled update scratch. See update.go and recovery.go.
	upd *updState
}

// Params returns the algorithmic parameters.
func (ix *Index) Params() lsh.Params { return ix.params }

// Options returns the build options (with defaults resolved).
func (ix *Index) Options() Options { return ix.opts }

// Store returns the underlying block store.
func (ix *Index) Store() *blockstore.Store { return ix.store }

// Data returns the indexed vectors (resident on DRAM, as in the paper).
func (ix *Index) Data() [][]float32 { return ix.data }

// SetPartitions makes every searcher created afterwards run one radius
// ladder per hash partition of the objects (shard.Of), over one walk of the
// hash tables: what a shard router would answer from parts indexes built
// with this index's parameters and hash families, read once. parts ≤ 1 gives
// one partition holding every object: the plain ladder.
func (ix *Index) SetPartitions(parts int) { ix.parts = parts }

// TableBits returns the paper's u.
func (ix *Index) TableBits() uint { return ix.u }

// StorageBytes returns the on-storage index size (Table 6, "Index storage").
// Safe beside updates, which grow the store under the update lock.
func (ix *Index) StorageBytes() int64 {
	ix.upd.mu.RLock()
	defer ix.upd.mu.RUnlock()
	return ix.store.Bytes()
}

// StrandedBytes returns how many of the store's bytes updates since the index
// was built or opened have left holding nothing: packed entries no slot
// names any more, and blocks on the free list (see update.go).
func (ix *Index) StrandedBytes() int64 {
	u := ix.upd
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.dead*EntryBytes + int64(len(u.free))*blockstore.BlockSize
}

// MemBytes returns the DRAM footprint of index metadata: occupancy bitmaps,
// table base addresses and hash functions (Table 6, "(Index mem)").
func (ix *Index) MemBytes() int64 {
	var b int64
	for _, radius := range ix.occupied {
		for _, bm := range radius {
			b += int64(len(bm)) * 8
		}
	}
	b += int64(ix.params.R()) * int64(ix.params.L) * 8 // table bases
	for _, f := range ix.families {
		b += int64(f.L*f.M)*int64(f.Dim)*4 + int64(f.L*f.M)*8 + int64(f.L)*8
	}
	return b
}

// Family returns the hash family every radius shares.
func (ix *Index) Family() *lsh.Family { return ix.families[0] }

// isOccupied reports whether bucket idx of table (r,l) is non-empty.
func (ix *Index) isOccupied(r, l int, idx uint32) bool {
	return ix.occupied[r][l][idx>>6]&(1<<(idx&63)) != 0
}

func (ix *Index) setOccupied(r, l int, idx uint32) {
	ix.occupied[r][l][idx>>6] |= 1 << (idx & 63)
}

// tableEntryBlock returns the block holding table entry idx of (r,l) and the
// byte offset of its 8-byte slot within that block.
func (ix *Index) tableEntryBlock(r, l int, idx uint32) (blockstore.Addr, int) {
	return ix.tableBase[r][l] + blockstore.Addr(idx/addrsPerTableBlock),
		int(idx%addrsPerTableBlock) * 8
}

// packEntry encodes an object info: fingerprint in the high bits, ID in the
// low idBits.
func (ix *Index) packEntry(id, fp uint32) uint64 {
	return uint64(fp)<<ix.idBits | uint64(id)
}

// unpackEntry decodes an object info.
func (ix *Index) unpackEntry(v uint64) (id, fp uint32) {
	id = uint32(v & (1<<ix.idBits - 1))
	fp = uint32(v >> ix.idBits)
	return id, fp
}

// Build constructs an E2LSHoS index over data into store.
func Build(data [][]float32, p lsh.Params, opts Options, store *blockstore.Store) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("diskindex: empty dataset")
	}
	if len(data) != p.N {
		return nil, fmt.Errorf("diskindex: params derived for n=%d but dataset has %d", p.N, len(data))
	}
	if len(data[0]) != p.Dim {
		return nil, fmt.Errorf("diskindex: params derived for dim=%d but dataset has %d", p.Dim, len(data[0]))
	}
	if p.R() == 0 {
		return nil, fmt.Errorf("diskindex: empty radius schedule")
	}
	if store == nil {
		return nil, fmt.Errorf("diskindex: nil block store")
	}
	u := opts.TableBits
	if u == 0 {
		u = autoTableBits(len(data))
		opts.TableBits = u
	}
	if u < 6 || u > 30 {
		return nil, fmt.Errorf("diskindex: table bits %d out of supported range [6,30]", u)
	}
	idBits := uint(bits.Len(uint(len(data) - 1)))
	if idBits < 1 {
		idBits = 1
	}
	fpBits := 32 - u
	if u > 32 {
		fpBits = 0
	}
	if idBits+fpBits > 8*EntryBytes {
		return nil, fmt.Errorf("diskindex: id bits (%d) + fingerprint bits (%d) exceed the %d-bit object info",
			idBits, fpBits, 8*EntryBytes)
	}

	ix := &Index{
		params: p,
		opts:   opts,
		data:   data,
		store:  store,
		u:      u,
		idBits: idBits,
		upd:    &updState{},
	}
	fams, err := lsh.NewFamilies(p, true, opts.Seed)
	if err != nil {
		return nil, err
	}
	ix.families = fams
	if err := ix.build(); err != nil {
		return nil, err
	}
	return ix, nil
}

// build hashes every object and writes all table regions and bucket chains.
// HashKeys fills one key slab per radius up front; radius r's slab is freed
// as soon as its L tables are written, so while the store grows the keys
// shrink, and the build holds the vectors plus the larger of the two rather
// than their sum. The deferred FreeAll frees what an error leaves.
func (ix *Index) build() error {
	p := ix.params
	n := len(ix.data)
	keys, err := memindex.HashKeys(ix.data, ix.families, p, true)
	if err != nil {
		return err
	}
	defer keys.FreeAll()

	numBuckets := uint32(1) << ix.u
	mask := numBuckets - 1
	// Reused scratch buffers.
	counts := make([]int32, numBuckets)
	starts := make([]int32, numBuckets+1)
	fill := make([]int32, numBuckets)
	sorted := make([]uint32, n) // object ids grouped by bucket index
	slots := make([]uint64, numBuckets)
	packBuf := make([]byte, blockstore.BlockSize)
	chainBuf := make([]byte, blockstore.BlockSize)

	ix.tableBase = make([][]blockstore.Addr, p.R())
	ix.occupied = make([][][]uint64, p.R())
	for r := 0; r < p.R(); r++ {
		ix.tableBase[r] = make([]blockstore.Addr, p.L)
		ix.occupied[r] = make([][]uint64, p.L)
		for l := 0; l < p.L; l++ {
			hashes := keys.Table(r, l)
			// Group object ids by bucket index (stable counting sort).
			clear(counts)
			for _, h := range hashes {
				counts[h&mask]++
			}
			starts[0] = 0
			for i := uint32(0); i < numBuckets; i++ {
				starts[i+1] = starts[i] + counts[i]
			}
			copy(fill, starts[:numBuckets])
			for obj, h := range hashes {
				idx := h & mask
				sorted[fill[idx]] = uint32(obj)
				fill[idx]++
			}

			// Allocate the table region, then write the buckets.
			ix.tableBase[r][l] = ix.store.AllocateRange(ix.expectedTableBlocks())
			bm := make([]uint64, (numBuckets+63)/64)
			ix.occupied[r][l] = bm
			for idx, c := range counts {
				if c > 0 {
					bm[idx>>6] |= 1 << (idx & 63)
				}
			}
			if err := ix.writeBuckets(hashes, sorted, starts, slots, packBuf, chainBuf); err != nil {
				return err
			}
			if err := ix.writeTableRegion(ix.tableBase[r][l], slots); err != nil {
				return err
			}
		}
		keys.Free(r)
	}
	return nil
}

// writeBuckets writes one hash table's buckets — bucket idx holds
// objs[starts[idx]:starts[idx+1]] — and sets slots[idx] to each bucket's
// slot. Buckets that fit one block are packed in index order, first fit, into
// shared blocks (packBuf holds the block being filled); longer ones get
// chains of their own (chainBuf).
func (ix *Index) writeBuckets(hashes, objs []uint32, starts []int32, slots []uint64, packBuf, chainBuf []byte) error {
	var open blockstore.Addr // the block being filled; Nil when none
	fill := 0
	for idx := range slots {
		bucket := objs[starts[idx]:starts[idx+1]]
		switch {
		case len(bucket) == 0:
			slots[idx] = 0
			continue
		case len(bucket) > entriesPerBlock:
			head, err := ix.writeChain(hashes, bucket, chainBuf)
			if err != nil {
				return err
			}
			slots[idx] = slot{addr: head}.encode()
			continue
		}
		if open == blockstore.Nil || fill+len(bucket) > entriesPerBlock {
			if err := ix.closePacked(open, fill, packBuf); err != nil {
				return err
			}
			open, fill = ix.store.Allocate(), 0
			clear(packBuf)
		}
		ix.putEntries(packBuf[HeaderBytes+fill*EntryBytes:], hashes, bucket)
		slots[idx] = slot{addr: open, off: fill, count: len(bucket)}.encode()
		fill += len(bucket)
	}
	return ix.closePacked(open, fill, packBuf)
}

// closePacked writes a filled packed block: next = Nil, count = fill.
func (ix *Index) closePacked(addr blockstore.Addr, fill int, buf []byte) error {
	if addr == blockstore.Nil {
		return nil
	}
	binary.LittleEndian.PutUint16(buf[8:10], uint16(fill))
	return ix.writeBucketBlock(addr, buf)
}

// putEntries encodes objs' object infos into dst, one after another.
func (ix *Index) putEntries(dst []byte, hashes, objs []uint32) {
	for i, obj := range objs {
		putUint40(dst[i*EntryBytes:], ix.packEntry(obj, hashes[obj]>>ix.u))
	}
}

// writeChain writes one bucket's entries as a chain of bucket blocks and
// returns the head block address.
func (ix *Index) writeChain(hashes []uint32, objs []uint32, buf []byte) (blockstore.Addr, error) {
	nBlocks := (len(objs) + entriesPerBlock - 1) / entriesPerBlock
	base := ix.store.AllocateRange(uint64(nBlocks))
	for b := 0; b < nBlocks; b++ {
		lo := b * entriesPerBlock
		hi := lo + entriesPerBlock
		if hi > len(objs) {
			hi = len(objs)
		}
		clear(buf)
		var next blockstore.Addr
		if b+1 < nBlocks {
			next = base + blockstore.Addr(b+1)
		}
		binary.LittleEndian.PutUint64(buf[0:8], uint64(next))
		binary.LittleEndian.PutUint16(buf[8:10], uint16(hi-lo))
		ix.putEntries(buf[HeaderBytes:], hashes, objs[lo:hi])
		if err := ix.writeBucketBlock(base+blockstore.Addr(b), buf); err != nil {
			return 0, err
		}
	}
	return base, nil
}

// writeBucketBlock writes one bucket block, invalidating any cached copy.
func (ix *Index) writeBucketBlock(addr blockstore.Addr, buf []byte) error {
	if err := ix.store.WriteBlock(addr, buf); err != nil {
		return err
	}
	ix.cacheInvalidate(addr)
	return nil
}

// writeTableRegion writes the encoded slots of one hash table.
func (ix *Index) writeTableRegion(base blockstore.Addr, table []uint64) error {
	var buf [blockstore.BlockSize]byte
	for blk := 0; blk*addrsPerTableBlock < len(table); blk++ {
		clear(buf[:])
		lo := blk * addrsPerTableBlock
		hi := lo + addrsPerTableBlock
		if hi > len(table) {
			hi = len(table)
		}
		for i, a := range table[lo:hi] {
			binary.LittleEndian.PutUint64(buf[i*8:], a)
		}
		if err := ix.store.WriteBlock(base+blockstore.Addr(blk), buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// putUint40 stores the low 40 bits of v little-endian.
func putUint40(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
}

// getUint40 loads a 40-bit little-endian value.
func getUint40(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 | uint64(b[4])<<32
}

// bucketHeader decodes a bucket block header.
func bucketHeader(block []byte) (next blockstore.Addr, count int) {
	return blockstore.Addr(binary.LittleEndian.Uint64(block[0:8])),
		int(binary.LittleEndian.Uint16(block[8:10]))
}

// expectedTableBlocks returns how many blocks one table region spans.
func (ix *Index) expectedTableBlocks() uint64 {
	numBuckets := uint64(1) << ix.u
	blocks := numBuckets / addrsPerTableBlock
	if numBuckets%addrsPerTableBlock != 0 {
		blocks++
	}
	return blocks
}

// checkDim validates a query vector's dimension.
func (ix *Index) checkDim(q []float32) {
	if len(q) != ix.params.Dim {
		panic(fmt.Sprintf("diskindex: query dim %d, index dim %d", len(q), ix.params.Dim))
	}
}
