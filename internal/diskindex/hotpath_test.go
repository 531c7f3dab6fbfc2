package diskindex

import (
	"context"
	"runtime"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
	"e2lshos/internal/lsh"
)

// TestCachedSearchIntoZeroAllocs is the PR-4 steady-state contract for the
// storage path: once the working set is cache-resident, the sequential
// searcher answers queries with zero allocations per query.
func TestCachedSearchIntoZeroAllocs(t *testing.T) {
	d, ix, _ := testSetup(t, 4000, 8, DefaultOptions())
	ix = engineAttached(t, ix, 16, ix.StorageBytes()*2, 0)
	s := ix.NewSearcher()
	const k = 10
	ctx := context.Background()
	dst := make([]ann.Neighbor, 0, k)
	for _, q := range d.Queries { // warmup: fill the cache and size scratch
		if _, _, err := s.SearchInto(ctx, q, k, dst); err != nil {
			t.Fatal(err)
		}
	}
	qi := 0
	allocs := testing.AllocsPerRun(100, func() {
		q := d.Queries[qi%d.NQ()]
		qi++
		if _, _, err := s.SearchInto(ctx, q, k, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state cached SearchInto allocates %v allocs/query, want 0", allocs)
	}
}

// TestWaveSearchIntoZeroAllocs is the contract of the default serving
// configuration: on a RAM store with no engine attached, the wave searcher
// walks each bucket on the calling goroutine and answers queries with zero
// allocations per query after warmup.
func TestWaveSearchIntoZeroAllocs(t *testing.T) {
	d, ix, _ := testSetup(t, 4000, 8, DefaultOptions())
	s := ix.NewWaveSearcher()
	const k = 10
	ctx := context.Background()
	dst := make([]ann.Neighbor, 0, k)
	for _, q := range d.Queries { // warmup: size the per-probe id arenas
		if _, _, err := s.SearchInto(ctx, q, k, dst); err != nil {
			t.Fatal(err)
		}
	}
	qi := 0
	allocs := testing.AllocsPerRun(100, func() {
		q := d.Queries[qi%d.NQ()]
		qi++
		if _, _, err := s.SearchInto(ctx, q, k, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state wave SearchInto allocates %v allocs/query, want 0", allocs)
	}
}

// insertAllocIndex builds the index the insert allocation tests mutate, with
// spare capacity so the measured inserts never regrow the dataset slice.
func insertAllocIndex(t *testing.T, store *blockstore.Store) (*Index, *dataset.Dataset) {
	t.Helper()
	const n, spare = 3500, 80
	d, err := dataset.Generate(dataset.Spec{
		Name: "insalloc", N: n, Queries: 1, Dim: 16,
		Clusters: 5, Spread: 0.05, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lsh.DefaultConfig()
	cfg.Rho = 0.25
	rmin := dataset.NNDistanceQuantile(d, 0.05, 10, 1)
	if rmin <= 0 {
		rmin = 0.1
	}
	p, err := lsh.Derive(cfg, d.N(), d.Dim, rmin, lsh.MaxRadius(d.MaxAbs(), d.Dim))
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]float32, n, n+spare)
	copy(data, d.Vectors)
	ix, err := Build(data, p, DefaultOptions(), store)
	if err != nil {
		t.Fatal(err)
	}
	return ix, d
}

// TestInsertZeroAllocs is the steady-state contract for the update path:
// with the WAL off and the dataset slice holding spare capacity, Insert
// runs entirely on the pooled update scratch — zero allocations per call.
// (Chain-head overflow, roughly one insert in a hundred per bucket,
// legitimately allocates a fresh block; the run count stays below that.)
func TestInsertZeroAllocs(t *testing.T) {
	ix, d := insertAllocIndex(t, blockstore.NewMem())
	vec := make([]float32, d.Dim)
	copy(vec, d.Vectors[0])
	// Warmup (inside AllocsPerRun too) sizes the scratch and prepends fresh
	// head blocks where build left a bucket's head exactly full.
	if _, err := ix.Insert(vec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ix.Insert(vec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Insert allocates %v allocs/op, want 0", allocs)
	}
}

// slabBackend is a RAM backend of fixed capacity that never allocates after
// construction, so a heap-byte count taken around index updates is the
// index's own garbage and not the backend growing.
type slabBackend struct {
	data   []byte
	blocks uint64
}

func (b *slabBackend) ReadBlock(a blockstore.Addr, buf []byte) error {
	copy(buf[:blockstore.BlockSize], b.data[int(a)*blockstore.BlockSize:])
	return nil
}

func (b *slabBackend) ReadBlocks(addrs []blockstore.Addr, bufs [][]byte) (int, error) {
	return blockstore.ReadBlocksSerial(b, addrs, bufs)
}

func (b *slabBackend) WriteBlock(a blockstore.Addr, data []byte) error {
	dst := b.data[int(a)*blockstore.BlockSize:][:blockstore.BlockSize]
	clear(dst[copy(dst, data):])
	b.blocks = max(b.blocks, uint64(a)+1)
	return nil
}

func (b *slabBackend) NumBlocks() uint64 { return b.blocks }

// TestInsertFreshChainsAllocBytes bounds the garbage of the expensive kind
// of insert: a vector far from the data lands in empty buckets, so nearly
// every one of its L·R chains gets a fresh head block and a rewritten table
// entry. The rewrite used to read the table block into a local array that
// escaped to the heap — one block of garbage per chain, 19.8 KB per insert
// on this index. The count includes the store's checksum table, which grows
// by one 32 KiB chunk per 4096 fresh blocks (about 1 KB per insert here).
func TestInsertFreshChainsAllocBytes(t *testing.T) {
	const inserts, maxBytesPerInsert = 32, 2048
	store := blockstore.NewWithBackend(&slabBackend{data: make([]byte, 64<<20)})
	ix, d := insertAllocIndex(t, store)
	vecs := make([][]float32, inserts+1)
	for i := range vecs {
		vecs[i] = make([]float32, d.Dim)
		for j := range vecs[i] {
			vecs[i][j] = d.Vectors[0][j] + float32(50*(i+1))
		}
	}
	if _, err := ix.Insert(vecs[inserts]); err != nil { // sizes the scratch
		t.Fatal(err)
	}
	blocks := store.NumBlocks()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, v := range vecs[:inserts] {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perInsert := (after.TotalAlloc - before.TotalAlloc) / inserts
	fresh := (store.NumBlocks() - blocks) / inserts
	t.Logf("%d B allocated per insert, %d fresh head blocks per insert", perInsert, fresh)
	if fresh < 20 {
		t.Fatalf("inserts opened only %d fresh chains each; the test no longer exercises table rewrites", fresh)
	}
	if perInsert > maxBytesPerInsert {
		t.Errorf("Insert allocated %d B per call, want at most %d", perInsert, maxBytesPerInsert)
	}
}

// TestSearchIntoMatchesSearchContext pins the two extraction paths of both
// probers to each other.
func TestSearchIntoMatchesSearchContext(t *testing.T) {
	d, ix, _ := testSetup(t, 4000, 8, DefaultOptions())
	const k = 5
	ctx := context.Background()
	seq := ix.NewSearcher()
	par := ix.NewWaveSearcher()
	dst := make([]ann.Neighbor, 0, k)
	for qi, q := range d.Queries {
		want, wantSt, err := seq.SearchContext(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err := seq.SearchInto(ctx, q, k, dst)
		if err != nil {
			t.Fatal(err)
		}
		if gotSt != wantSt {
			t.Fatalf("q%d: sequential stats diverged: %+v vs %+v", qi, gotSt, wantSt)
		}
		assertSameNeighbors(t, qi, got, want)
		pgot, _, err := par.SearchInto(ctx, q, k, dst)
		if err != nil {
			t.Fatal(err)
		}
		assertSameNeighbors(t, qi, pgot, want)
	}
}

func assertSameNeighbors(t *testing.T, qi int, got, want ann.Result) {
	t.Helper()
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("q%d: %d vs %d neighbors", qi, len(got.Neighbors), len(want.Neighbors))
	}
	for i := range got.Neighbors {
		if got.Neighbors[i] != want.Neighbors[i] {
			t.Fatalf("q%d rank %d: %+v vs %+v", qi, i, got.Neighbors[i], want.Neighbors[i])
		}
	}
}
