package diskindex

import (
	"context"
	"strings"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
)

// buildUpdatable builds a small index with ID headroom for inserts.
func buildUpdatable(t *testing.T, n, extra int) (*dataset.Dataset, *Index) {
	t.Helper()
	return buildUpdatableWith(t, n, extra, DefaultOptions())
}

// buildUpdatableWith is buildUpdatable under the given build options.
func buildUpdatableWith(t *testing.T, n, extra int, opts Options) (*dataset.Dataset, *Index) {
	t.Helper()
	d, err := dataset.Generate(dataset.Spec{
		Name: "upd", N: n + extra, Queries: 10, Dim: 16,
		Clusters: 5, Spread: 0.05, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := d.Subset(n)
	cfg := lsh.DefaultConfig()
	cfg.Rho = 0.25
	cfg.Sigma = 1000 // generous budget: searches are exhaustive over buckets
	rmin := dataset.NNDistanceQuantile(base, 0.05, 10, 1)
	if rmin <= 0 {
		rmin = 0.1
	}
	p, err := lsh.Derive(cfg, base.N(), base.Dim, rmin, lsh.MaxRadius(base.MaxAbs(), base.Dim))
	if err != nil {
		t.Fatal(err)
	}
	// Copy the vector views so Insert can append without touching d.
	data := make([][]float32, base.N())
	copy(data, base.Vectors)
	ix, err := Build(data, p, opts, blockstore.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	return d, ix
}

func TestInsertBecomesSearchable(t *testing.T) {
	// n=1000 gives 10 ID bits (1024 slots), so 20 inserts fit the headroom.
	d, ix := buildUpdatable(t, 1000, 20)
	for i := 1000; i < 1020; i++ {
		id, err := ix.Insert(d.Vectors[i])
		if err != nil {
			t.Fatal(err)
		}
		if id != uint32(i) {
			t.Fatalf("insert %d got id %d", i, id)
		}
	}
	// Self-queries for inserted vectors must find them at distance zero.
	s := ix.NewSearcher()
	found := 0
	for i := 1000; i < 1020; i++ {
		res, _, err := s.Search(d.Vectors[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) > 0 && res.Neighbors[0].ID == uint32(i) && res.Neighbors[0].Dist == 0 {
			found++
		}
	}
	if found < 18 {
		t.Errorf("only %d/20 inserted vectors self-found", found)
	}
}

// TestBudgetedSearchAfterInsert: a searcher created before a run of inserts
// answers budgeted self-queries for the inserted vectors. The budget used to
// live on a copy of the index taken when the searcher was made, whose dataset
// snapshot ended where the inserts began: verifying an inserted ID indexed
// past it and panicked. The budget now travels with the query.
func TestBudgetedSearchAfterInsert(t *testing.T) {
	d, ix := buildUpdatable(t, 1000, 20)
	ref, wave := ix.NewSearcher(), ix.NewWaveSearcher()
	for i := 1000; i < 1020; i++ {
		if _, err := ix.Insert(d.Vectors[i]); err != nil {
			t.Fatal(err)
		}
	}
	kn := ladder.Knobs{K: 1, Budget: 1000 * ix.params.L}
	for name, s := range map[string]interface {
		Run(context.Context, []float32, ladder.Knobs, []ann.Neighbor) (ann.Result, Stats, error)
	}{"reference": ref, "wave": wave} {
		for i := 1000; i < 1020; i++ {
			res, _, err := s.Run(context.Background(), d.Vectors[i], kn, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Neighbors) == 0 || res.Neighbors[0].ID != uint32(i) || res.Neighbors[0].Dist != 0 {
				t.Errorf("%s: inserted vector %d not self-found at distance 0: %+v", name, i, res.Neighbors)
			}
		}
	}
}

func TestInsertMatchesRebuild(t *testing.T) {
	// Index built over n, then m inserted, must return the same candidate
	// sets as an index built over n+m directly (hash functions are
	// deterministic and identical).
	d, incr := buildUpdatable(t, 800, 100)
	for i := 800; i < 900; i++ {
		if _, err := incr.Insert(d.Vectors[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Rebuild from scratch with the derivation done at n=800 so parameters
	// and families match the incremental index exactly.
	p := incr.Params()
	data := make([][]float32, 900)
	copy(data, d.Vectors[:900])
	p.N = 900
	rebuilt, err := Build(data, p, DefaultOptions(), blockstore.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	si, sr := incr.NewSearcher(), rebuilt.NewSearcher()
	for _, q := range d.Queries {
		ri, sti, err := si.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		rr, str, err := sr.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if sti.Checked != str.Checked {
			t.Fatalf("incremental checked %d, rebuilt %d", sti.Checked, str.Checked)
		}
		if len(ri.Neighbors) != len(rr.Neighbors) {
			t.Fatalf("result sizes differ: %d vs %d", len(ri.Neighbors), len(rr.Neighbors))
		}
		for i := range ri.Neighbors {
			if ri.Neighbors[i] != rr.Neighbors[i] {
				t.Fatalf("results differ at rank %d", i)
			}
		}
	}
}

func TestDeleteRemovesObject(t *testing.T) {
	d, ix := buildUpdatable(t, 1000, 0)
	s := ix.NewSearcher()
	// Pick an object, confirm self-query finds it, delete, confirm gone.
	const victim = 123
	res, _, err := s.Search(d.Vectors[victim], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) == 0 || res.Neighbors[0].ID != victim {
		t.Skip("victim not self-findable at this budget; pick another test seed")
	}
	removed, err := ix.Delete(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !removed {
		t.Fatal("delete removed nothing")
	}
	res, _, err = s.Search(d.Vectors[victim], 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range res.Neighbors {
		if nb.ID == victim {
			t.Fatal("deleted object still returned")
		}
	}
}

func TestDeleteAllFromBucketClearsOccupancy(t *testing.T) {
	_, ix := buildUpdatable(t, 300, 0)
	// Delete everything; every occupancy bit must clear and searches return
	// empty.
	for id := 0; id < 300; id++ {
		if _, err := ix.Delete(uint32(id)); err != nil {
			t.Fatal(err)
		}
	}
	p := ix.Params()
	for r := 0; r < p.R(); r++ {
		for l := 0; l < p.L; l++ {
			for _, word := range ix.occupied[r][l] {
				if word != 0 {
					t.Fatal("occupancy bit still set after deleting every object")
				}
			}
		}
	}
	s := ix.NewSearcher()
	res, st, err := s.Search(ix.data[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 0 || st.NonEmptyProbes != 0 {
		t.Fatal("search found entries in an emptied index")
	}
}

func TestDeleteUnknownID(t *testing.T) {
	_, ix := buildUpdatable(t, 100, 0)
	if _, err := ix.Delete(5000); err == nil {
		t.Error("delete of unknown ID accepted")
	}
}

func TestInsertIDSpaceExhaustion(t *testing.T) {
	// Build over a size that saturates idBits, then insert until failure.
	d, err := dataset.Generate(dataset.Spec{
		Name: "full", N: 257, Queries: 1, Dim: 8,
		Clusters: 2, Spread: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lsh.DefaultConfig()
	p, err := lsh.Derive(cfg, 256, 8, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]float32, 256)
	copy(data, d.Vectors[:256])
	ix, err := Build(data, p, DefaultOptions(), blockstore.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	// idBits for n=256 is 8 -> capacity 256; the first insert must fail.
	if _, err := ix.Insert(d.Vectors[256]); err == nil {
		t.Error("insert beyond ID space accepted")
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	// n=500 gives 9 ID bits (512 slots); deletes do not recycle IDs, so stay
	// within the 12 remaining slots.
	d, ix := buildUpdatable(t, 500, 10)
	s := ix.NewSearcher()
	for i := 500; i < 510; i++ {
		id, err := ix.Insert(d.Vectors[i])
		if err != nil {
			t.Fatal(err)
		}
		removed, err := ix.Delete(id)
		if err != nil {
			t.Fatal(err)
		}
		if !removed {
			t.Fatalf("freshly inserted %d not removable", id)
		}
		res, _, err := s.Search(d.Vectors[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) > 0 && res.Neighbors[0].ID == id {
			t.Fatalf("deleted object %d still found", id)
		}
	}
}

func TestChainGrowthOnManyInserts(t *testing.T) {
	// Force repeated head-block overflow by inserting identical vectors: all
	// land in the same buckets, growing chains.
	_, ix := buildUpdatable(t, 300, 0)
	v := make([]float32, 16)
	copy(v, ix.data[0])
	inserted := 0
	for i := 0; i < 250; i++ {
		if _, err := ix.Insert(v); err != nil {
			break
		}
		inserted++
	}
	if inserted < 200 {
		t.Fatalf("only %d inserts succeeded", inserted)
	}
	// The duplicates must all be findable from a self query with a huge
	// budget.
	s := ix.NewSearcher()
	res, _, err := s.Search(v, 200)
	if err != nil {
		t.Fatal(err)
	}
	zeroDist := 0
	for _, nb := range res.Neighbors {
		if nb.Dist == 0 {
			zeroDist++
		}
	}
	if zeroDist < 150 {
		t.Errorf("only %d duplicates found after chain growth", zeroDist)
	}
}

// bucketKey names one bucket: its radius, table and index.
type bucketKey struct {
	r, l int
	idx  uint32
}

// packedRange is a packed bucket's slot and the bytes of its range.
type packedRange struct {
	sl    slot
	bytes string
}

// packedRanges returns the slot and range bytes of every packed bucket.
func packedRanges(t *testing.T, ix *Index) map[bucketKey]packedRange {
	t.Helper()
	out := map[bucketKey]packedRange{}
	buf := make([]byte, blockstore.BlockSize)
	p := ix.params
	for r := 0; r < p.R(); r++ {
		for l := 0; l < p.L; l++ {
			for idx := uint32(0); idx < 1<<ix.u; idx++ {
				sl, err := ix.loadTableEntry(r, l, idx, buf)
				if err != nil {
					t.Fatal(err)
				}
				if sl.count == 0 {
					continue
				}
				if err := ix.store.ReadBlock(sl.addr, buf); err != nil {
					t.Fatal(err)
				}
				out[bucketKey{r, l, idx}] = packedRange{sl, string(buf[HeaderBytes+sl.off*EntryBytes : HeaderBytes+(sl.off+sl.count)*EntryBytes])}
			}
		}
	}
	return out
}

// bucketsOf returns the L·R buckets v hashes into, radius by radius.
func bucketsOf(ix *Index, v []float32) []bucketKey {
	p := ix.params
	fam := ix.Family()
	proj := make([]float64, p.L*p.M)
	hashes := make([]uint32, p.L)
	fam.Project(v, proj)
	var keys []bucketKey
	for r := 0; r < p.R(); r++ {
		fam.HashesAt(proj, p.Radii[r], hashes)
		for l, h := range hashes {
			idx, _ := lsh.SplitHash(h, ix.u)
			keys = append(keys, bucketKey{r, l, idx})
		}
	}
	return keys
}

// TestUpdatesKeepPacking: an update changes only the buckets of the object
// it names, in place or by moving their entries, so every other bucket keeps
// its slot and the bytes of its range in the block it shares. A delete
// allocates nothing, whether it names a built object or an inserted one. An
// insert grows the store by the entries of the buckets it moves and the
// chain heads it prepends, 3.7 KB on this index; maxInsertBytes is under
// half the 10.7 KB that giving each moved bucket a block of its own costs.
func TestUpdatesKeepPacking(t *testing.T) {
	const n, inserts, maxInsertBytes = 3800, 200, 5120
	d, ix := buildUpdatable(t, n, inserts)
	before := packedRanges(t, ix)
	blocks := map[blockstore.Addr]bool{}
	for _, pr := range before {
		blocks[pr.sl.addr] = true
	}
	if len(before) <= len(blocks) {
		t.Fatalf("%d packed buckets in %d blocks: no block is shared", len(before), len(blocks))
	}
	touched := map[bucketKey]bool{}
	touch := func(v []float32) {
		for _, k := range bucketsOf(ix, v) {
			touched[k] = true
		}
	}

	size := ix.StorageBytes()
	var ids []uint32
	for i := n; i < n+inserts; i++ {
		id, err := ix.Insert(d.Vectors[i])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		touch(d.Vectors[i])
	}
	grown := ix.StorageBytes() - size
	t.Logf("%d inserts grew the store %d B, %d B each (L·R = %d)", inserts, grown, grown/inserts, ix.params.L*ix.params.R())
	if grown > inserts*maxInsertBytes {
		t.Errorf("%d inserts grew the store by %d B, over %d B each", inserts, grown, maxInsertBytes)
	}

	size = ix.StorageBytes()
	deletes := 0
	for id := uint32(3); id < n; id += 19 {
		if _, err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
		touch(ix.data[id])
		deletes++
	}
	for _, id := range ids[:inserts/2] {
		if _, err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
		touch(ix.data[id])
		deletes++
	}
	if grown := ix.StorageBytes() - size; grown != 0 {
		t.Errorf("%d deletes grew the store by %d B", deletes, grown)
	}

	after := packedRanges(t, ix)
	kept := 0
	for k, pr := range before {
		if touched[k] {
			continue
		}
		if after[k] != pr {
			t.Fatalf("bucket %+v, which no update named, went from %+v to %+v", k, pr, after[k])
		}
		kept++
	}
	if kept == 0 || kept == len(before) {
		t.Fatalf("%d of %d packed buckets untouched: the history does not split them", kept, len(before))
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteThenInsertReusesFreedHead: on a long chain, the delete that
// empties the head unlinks it and the insert that follows prepends the
// block it freed, so the pair leaves the store's size as it was.
func TestDeleteThenInsertReusesFreedHead(t *testing.T) {
	d, ix := buildUpdatable(t, 600, 0)
	v := d.Vectors[3]
	keys := bucketsOf(ix, v)
	buf := make([]byte, blockstore.BlockSize)
	// heads returns the head block of every chain v's buckets hold.
	heads := func() map[blockstore.Addr]bool {
		out := map[blockstore.Addr]bool{}
		for _, k := range keys {
			sl, err := ix.loadTableEntry(k.r, k.l, k.idx, buf)
			if err != nil {
				t.Fatal(err)
			}
			if sl.count != 0 || sl.addr == blockstore.Nil {
				t.Fatalf("bucket %+v is not a chain: %+v", k, sl)
			}
			out[sl.addr] = true
		}
		return out
	}
	// 150 copies of one vector push every one of its buckets past a block.
	var dups []uint32
	for i := 0; i < 150; i++ {
		id, err := ix.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		dups = append(dups, id)
	}
	k := keys[0]
	sl, err := ix.loadTableEntry(k.r, k.l, k.idx, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.store.ReadBlock(sl.addr, buf); err != nil {
		t.Fatal(err)
	}
	next, count := bucketHeader(buf)
	if next == blockstore.Nil {
		t.Fatalf("bucket %+v is a chain of one block", k)
	}
	size := ix.StorageBytes()
	var freed map[blockstore.Addr]bool
	for ; count > 0; count-- {
		was := heads()
		if _, err := ix.Delete(dups[len(dups)-1]); err != nil {
			t.Fatal(err)
		}
		dups = dups[:len(dups)-1]
		freed = was
		for a := range heads() {
			delete(freed, a)
		}
	}
	if !freed[sl.addr] {
		t.Fatalf("deleting the %+v head's entries left block %d linked", k, sl.addr)
	}
	if _, err := ix.Insert(v); err != nil {
		t.Fatal(err)
	}
	got, err := ix.loadTableEntry(k.r, k.l, k.idx, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !freed[got.addr] {
		t.Errorf("the insert prepended block %d, not one of the %d heads the last delete freed", got.addr, len(freed))
	}
	if grown := ix.StorageBytes() - size; grown != 0 {
		t.Errorf("deleting a chain head's entries and inserting one grew the store by %d B", grown)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// strandedRecount recounts StrandedBytes from the store: a block that is
// neither a table block, a chain's nor on the free list is a packed block,
// whose entries up to its fill that no slot names are dead.
func strandedRecount(t *testing.T, ix *Index) int64 {
	t.Helper()
	p := ix.params
	buf := make([]byte, blockstore.BlockSize)
	table := map[blockstore.Addr]bool{}
	chain := map[blockstore.Addr]bool{}
	live := map[blockstore.Addr]int{}
	for r := 0; r < p.R(); r++ {
		for l := 0; l < p.L; l++ {
			for b := uint64(0); b < ix.expectedTableBlocks(); b++ {
				table[ix.tableBase[r][l]+blockstore.Addr(b)] = true
			}
			for idx := uint32(0); idx < 1<<ix.u; idx++ {
				sl, err := ix.loadTableEntry(r, l, idx, buf)
				if err != nil {
					t.Fatal(err)
				}
				if sl.count > 0 {
					live[sl.addr] += sl.count
					continue
				}
				for a := sl.addr; a != blockstore.Nil; {
					chain[a] = true
					if err := ix.store.ReadBlock(a, buf); err != nil {
						t.Fatal(err)
					}
					a, _ = bucketHeader(buf)
				}
			}
		}
	}
	free := map[blockstore.Addr]bool{}
	for _, a := range ix.upd.free {
		if free[a] || chain[a] || live[a] > 0 || a == ix.upd.open {
			t.Fatalf("free block %d is listed twice, linked or open", a)
		}
		free[a] = true
	}
	var dead int
	for a := blockstore.Addr(1); uint64(a) <= ix.store.NumBlocks(); a++ {
		if table[a] || chain[a] || free[a] {
			continue
		}
		if err := ix.store.ReadBlock(a, buf); err != nil {
			t.Fatal(err)
		}
		_, fill := bucketHeader(buf)
		dead += fill - live[a]
	}
	return int64(dead)*EntryBytes + int64(len(free))*blockstore.BlockSize
}

// TestStrandedBytesMatchesRecount: the gauge updates keep equals a recount
// from the store after a history that moves buckets, deletes from packed
// ranges and chains, and empties chain heads.
func TestStrandedBytesMatchesRecount(t *testing.T) {
	d, ix := buildUpdatable(t, 600, 20)
	if got := ix.StrandedBytes(); got != 0 {
		t.Fatalf("a fresh build strands %d B", got)
	}
	check := func(stage string) {
		t.Helper()
		want := strandedRecount(t, ix)
		if got := ix.StrandedBytes(); got != want {
			t.Fatalf("%s: StrandedBytes = %d, recount %d", stage, got, want)
		}
		t.Logf("%s: %d B stranded, %d free blocks", stage, want, len(ix.upd.free))
	}
	var ids []uint32
	for i := 600; i < 620; i++ {
		id, err := ix.Insert(d.Vectors[i])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 110; i++ {
		id, err := ix.Insert(d.Vectors[5])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	check("inserts")
	for id := uint32(1); id < 600; id += 23 {
		if _, err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(ids) - 1; i >= 0; i -= 2 {
		if _, err := ix.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	check("deletes")
	if ix.StrandedBytes() == 0 {
		t.Fatal("the history stranded nothing")
	}
	for i := 600; i < 610; i++ {
		if _, err := ix.Insert(d.Vectors[i]); err != nil {
			t.Fatal(err)
		}
	}
	check("reinserts")
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Deleting every object, newest first, empties every chain head and
	// every packed block whose entries go last-first: all go on the free
	// list.
	free := len(ix.upd.free)
	for id := len(ix.data) - 1; id >= 0; id-- {
		if _, err := ix.Delete(uint32(id)); err != nil {
			t.Fatal(err)
		}
	}
	check("all deleted")
	if occupiedBuckets(ix) != 0 || len(ix.upd.free) <= free {
		t.Fatalf("deleting every object left %d buckets occupied and %d blocks free (was %d)",
			occupiedBuckets(ix), len(ix.upd.free), free)
	}
}

// TestCheckInvariantsCatchesOverlap seeds the defect the packed layout must
// never have: two buckets of one block that share an entry. Moving a packed
// bucket's range one entry back, over its neighbor's last entry, must fail
// the audit on the overlap.
func TestCheckInvariantsCatchesOverlap(t *testing.T) {
	_, ix := buildUpdatable(t, 600, 0)
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockstore.BlockSize)
	var prev slot
	for idx := uint32(0); idx < 1<<ix.u; idx++ {
		sl, err := ix.loadTableEntry(0, 0, idx, buf)
		if err != nil {
			t.Fatal(err)
		}
		if sl.count == 0 {
			continue
		}
		if prev.count > 0 && sl.addr == prev.addr && sl.off == prev.off+prev.count {
			ix.upd.mu.Lock()
			ix.upd.scratchLocked(ix)
			err := ix.storeTableEntryLocked(0, 0, idx, slot{addr: sl.addr, off: sl.off - 1, count: sl.count + 1})
			ix.upd.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			err = ix.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), "overlaps another bucket") {
				t.Fatalf("overlapping buckets: CheckInvariants = %v, want an overlap error", err)
			}
			t.Logf("seeded overlap: %v", err)
			return
		}
		prev = sl
	}
	t.Fatal("table (0,0) has no two neighboring buckets in one block")
}
