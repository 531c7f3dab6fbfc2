package diskindex

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
	"e2lshos/internal/foldtest"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/lsh"
)

// countingBackend is a map-backed blockstore.Backend that counts reads: the
// ground truth for "how many I/Os actually reached the device".
type countingBackend struct {
	mu     sync.Mutex
	blocks map[blockstore.Addr][blockstore.BlockSize]byte
	max    uint64
	reads  atomic.Int64
}

func newCountingBackend() *countingBackend {
	return &countingBackend{blocks: make(map[blockstore.Addr][blockstore.BlockSize]byte)}
}

func (b *countingBackend) ReadBlock(a blockstore.Addr, buf []byte) error {
	b.reads.Add(1)
	b.mu.Lock()
	blk := b.blocks[a] // zero block if never written
	b.mu.Unlock()
	copy(buf[:blockstore.BlockSize], blk[:])
	return nil
}

func (b *countingBackend) ReadBlocks(addrs []blockstore.Addr, bufs [][]byte) (int, error) {
	return blockstore.ReadBlocksSerial(b, addrs, bufs)
}

func (b *countingBackend) WriteBlock(a blockstore.Addr, data []byte) error {
	var blk [blockstore.BlockSize]byte
	copy(blk[:], data)
	b.mu.Lock()
	b.blocks[a] = blk
	if uint64(a) >= b.max {
		b.max = uint64(a) + 1
	}
	b.mu.Unlock()
	return nil
}

func (b *countingBackend) NumBlocks() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.max
}

// cacheSetup builds a small index over a counting backend, optionally with a
// cache (capacityBytes > 0) and readahead attached — through an I/O engine,
// the only place a cache lives.
func cacheSetup(t *testing.T, capacityBytes int64, readahead int) (*dataset.Dataset, *Index, *countingBackend) {
	t.Helper()
	d, err := dataset.Generate(dataset.Spec{
		Name: "cache-test", N: 3000, Queries: 20, Dim: 24,
		Clusters: 8, Spread: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lsh.DefaultConfig()
	cfg.Rho = 0.25
	cfg.Sigma = 4
	rmin := dataset.NNDistanceQuantile(d, 0.05, 15, 1)
	if rmin <= 0 {
		rmin = 0.1
	}
	p, err := lsh.Derive(cfg, d.N(), d.Dim, rmin, lsh.MaxRadius(d.MaxAbs(), d.Dim))
	if err != nil {
		t.Fatal(err)
	}
	backend := newCountingBackend()
	ix, err := Build(d.Vectors, p, DefaultOptions(), blockstore.NewWithBackend(backend))
	if err != nil {
		t.Fatal(err)
	}
	backend.reads.Store(0) // ignore build-time traffic
	if capacityBytes > 0 {
		ix = engineAttached(t, ix, 16, capacityBytes, readahead)
	}
	return d, ix, backend
}

// runRepeated answers every query `passes` times sequentially and returns
// the per-query results of the last pass plus the aggregate stats.
func runRepeated(t *testing.T, ix *Index, d *dataset.Dataset, passes int) ([]ann.Result, Stats) {
	t.Helper()
	s := ix.NewSearcher()
	var agg Stats
	results := make([]ann.Result, len(d.Queries))
	for pass := 0; pass < passes; pass++ {
		for qi, q := range d.Queries {
			res, st, err := s.Search(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			agg.Radii += st.Radii
			agg.TableIOs += st.TableIOs
			agg.BucketIOs += st.BucketIOs
			agg.CacheHits += st.CacheHits
			agg.CacheMisses += st.CacheMisses
			agg.PrefetchedBlocks += st.PrefetchedBlocks
			results[qi] = res
		}
	}
	return results, agg
}

// TestCacheHalvesBackendReads is the PR's headline claim: on a repeated
// query workload, a cache sized to the working set cuts backend ReadBlock
// calls by at least 2x versus the uncached index, without changing answers.
func TestCacheHalvesBackendReads(t *testing.T) {
	const passes = 3
	d, plain, plainBackend := cacheSetup(t, 0, 0)
	wantRes, plainStats := runRepeated(t, plain, d, passes)
	uncachedReads := plainBackend.reads.Load()

	_, cached, cachedBackend := cacheSetup(t, 64<<20, 0) // holds the whole index
	gotRes, cachedStats := runRepeated(t, cached, d, passes)
	cachedReads := cachedBackend.reads.Load()

	if uncachedReads == 0 {
		t.Fatal("uncached run did no I/O; test is vacuous")
	}
	if cachedReads*2 > uncachedReads {
		t.Errorf("cache saved too little: %d backend reads cached vs %d uncached (want >=2x fewer)",
			cachedReads, uncachedReads)
	}
	// The cache must be invisible to the algorithm: same answers, same
	// logical I/O accounting, and the counters must be self-consistent.
	for qi := range wantRes {
		if len(wantRes[qi].Neighbors) != len(gotRes[qi].Neighbors) {
			t.Fatalf("query %d: neighbor count differs with cache", qi)
		}
		for i := range wantRes[qi].Neighbors {
			if wantRes[qi].Neighbors[i].ID != gotRes[qi].Neighbors[i].ID {
				t.Fatalf("query %d: neighbor %d differs with cache", qi, i)
			}
		}
	}
	if plainStats.TableIOs != cachedStats.TableIOs || plainStats.BucketIOs != cachedStats.BucketIOs {
		t.Errorf("logical I/O accounting changed: %d/%d uncached vs %d/%d cached",
			plainStats.TableIOs, plainStats.BucketIOs, cachedStats.TableIOs, cachedStats.BucketIOs)
	}
	if plainStats.CacheHits != 0 || plainStats.CacheMisses != 0 {
		t.Error("uncached run reported cache counters")
	}
	if got := int64(cachedStats.CacheMisses); got != cachedReads {
		t.Errorf("CacheMisses %d != backend reads %d", got, cachedReads)
	}
	if cachedStats.CacheHits+cachedStats.CacheMisses != cachedStats.TableIOs+cachedStats.BucketIOs {
		t.Errorf("cache outcomes %d+%d do not cover the %d logical reads",
			cachedStats.CacheHits, cachedStats.CacheMisses, cachedStats.TableIOs+cachedStats.BucketIOs)
	}
}

// TestReadaheadPrefetchesAndAgrees: with readahead on, queries report
// prefetched blocks, answers still match the uncached reference, and the
// prefetched blocks turn later rounds' misses into hits on a cold cache.
func TestReadaheadPrefetchesAndAgrees(t *testing.T) {
	d, plain, _ := cacheSetup(t, 0, 0)
	wantRes, _ := runRepeated(t, plain, d, 1)

	_, cached, backend := cacheSetup(t, 64<<20, 4)
	gotRes, st := runRepeated(t, cached, d, 1)
	for qi := range wantRes {
		for i := range wantRes[qi].Neighbors {
			if wantRes[qi].Neighbors[i].ID != gotRes[qi].Neighbors[i].ID {
				t.Fatalf("query %d: neighbor %d differs with readahead", qi, i)
			}
		}
	}
	if st.Radii <= len(d.Queries) {
		t.Skip("ladder ended after one round; no readahead window at this scale")
	}
	if st.PrefetchedBlocks == 0 {
		t.Error("multi-round queries prefetched nothing")
	}
	if st.CacheHits == 0 {
		t.Error("readahead produced no demand hits on a cold cache")
	}
	// Every backend read is either a demand miss or a prefetch.
	if total := int64(st.CacheMisses) + cached.Cache().Prefetched(); total != backend.reads.Load() {
		t.Errorf("misses+prefetched = %d, backend saw %d reads", total, backend.reads.Load())
	}
}

// TestCachedWaveSearcherRace: concurrent WaveSearchers over one shared
// cache+readahead index must stay correct under the race detector and agree
// with the sequential reference.
func TestCachedWaveSearcherRace(t *testing.T) {
	d, plain, _ := cacheSetup(t, 0, 0)
	wantRes, _ := runRepeated(t, plain, d, 1)

	_, cached, _ := cacheSetup(t, 64<<20, 2)
	const searchers = 4
	var wg sync.WaitGroup
	errs := make(chan error, searchers)
	for w := 0; w < searchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps := cached.NewWaveSearcher()
			for qi, q := range d.Queries {
				res, st, err := ps.SearchContext(context.Background(), q, 1)
				if err != nil {
					errs <- err
					return
				}
				if st.CacheHits+st.CacheMisses != st.TableIOs+st.BucketIOs {
					errs <- fmt.Errorf("query %d: cache outcomes do not cover logical reads", qi)
					return
				}
				for i := range wantRes[qi].Neighbors {
					if res.Neighbors[i].ID != wantRes[qi].Neighbors[i].ID {
						errs <- fmt.Errorf("query %d: neighbor %d diverged under concurrency", qi, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestUpdateInvalidatesCache: a warm cache must not serve pre-insert head
// blocks — the inserted object has to be findable immediately.
func TestUpdateInvalidatesCache(t *testing.T) {
	d, ix, _ := cacheSetup(t, 64<<20, 0)
	runRepeated(t, ix, d, 1) // warm the cache over the whole ladder

	v := make([]float32, d.Dim)
	copy(v, d.Queries[0])
	id, err := ix.Insert(v)
	if err != nil {
		t.Fatal(err)
	}
	s := ix.NewSearcher()
	res, _, err := s.Search(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) == 0 || res.Neighbors[0].ID != id || res.Neighbors[0].Dist != 0 {
		t.Fatalf("inserted vector not found through warm cache: %+v", res.Neighbors)
	}
	if ok, err := ix.Delete(id); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	res, _, err = s.Search(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) > 0 && res.Neighbors[0].ID == id && res.Neighbors[0].Dist == 0 {
		t.Fatal("deleted vector still served from cache")
	}
}

// TestFoldBatchStatsEveryField: everything an engine call reports lands in
// the query's Stats — a counter added to ioengine.BatchStats and not folded
// here would read zero on /stats.
func TestFoldBatchStatsEveryField(t *testing.T) {
	var bs ioengine.BatchStats
	foldtest.Fill(&bs)
	var st Stats
	foldBatchStats(&st, bs)
	if got, want := foldtest.Sum(st), foldtest.Sum(bs); got != want {
		t.Errorf("foldBatchStats carried %d of %d: %+v from %+v", got, want, st, bs)
	}
}
