package diskindex

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
	"e2lshos/internal/lsh"
)

// benchData is the corpus and the derived parameters every benchmark index
// is built from.
func benchData(b *testing.B) (*dataset.Dataset, lsh.Params) {
	b.Helper()
	d, err := dataset.Generate(dataset.Spec{
		Name: "bench", N: 20000, Queries: 50, Dim: 64,
		Clusters: 16, Spread: 0.05, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := lsh.DefaultConfig()
	cfg.Rho = 0.25
	cfg.Sigma = 8
	p, err := lsh.Derive(cfg, d.N(), d.Dim, 0.3, lsh.MaxRadius(d.MaxAbs(), d.Dim))
	if err != nil {
		b.Fatal(err)
	}
	return d, p
}

func benchSetup(b *testing.B) (*dataset.Dataset, lsh.Params, *Index) {
	b.Helper()
	d, p := benchData(b)
	ix, err := Build(d.Vectors, p, DefaultOptions(), blockstore.NewMem())
	if err != nil {
		b.Fatal(err)
	}
	return d, p, ix
}

// fileBenchIndex is benchSetup's index built onto a real file (page-cache warm: the
// build just wrote it), with an engine of the given depth attached when
// depth > 0.
func fileBenchIndex(b *testing.B, depth int) (*dataset.Dataset, *Index) {
	b.Helper()
	d, p := benchData(b)
	store, f, err := blockstore.OpenFile(filepath.Join(b.TempDir(), "bench.blocks"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	ix, err := Build(d.Vectors, p, DefaultOptions(), store)
	if err != nil {
		b.Fatal(err)
	}
	if depth > 0 {
		ix = engineAttached(b, ix, depth, 0, 0)
	}
	return d, ix
}

// benchWaveSearch is one pass of ix's wave searcher over every query, top-k,
// per iteration, reporting the time per query and the blocks read per query.
func benchWaveSearch(b *testing.B, ix *Index, queries [][]float32, k int) {
	s := ix.NewWaveSearcher()
	ctx := context.Background()
	dst := make([]ann.Neighbor, 0, k)
	ios := 0
	pass := func() {
		for _, q := range queries {
			_, st, err := s.SearchInto(ctx, q, k, dst)
			if err != nil {
				b.Fatal(err)
			}
			ios += st.IOs()
		}
	}
	pass() // warmup: size the arenas, touch the pages
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	nq := b.N * len(queries)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nq), "ns/query")
	b.ReportMetric(float64(ios)/float64(nq+len(queries)), "blocks/query") // warmup pass included
}

// benchFileWaveSearch runs benchWaveSearch on the file-backed index (make
// bench runs three passes). The pair below prints the engine-to-in-line
// ratio: what routing every read through the I/O engine costs when the
// backend answers from the page cache.
func benchFileWaveSearch(b *testing.B, depth int) {
	d, ix := fileBenchIndex(b, depth)
	benchWaveSearch(b, ix, d.Queries, 1)
}

func BenchmarkFileWaveSearchInline(b *testing.B)        { benchFileWaveSearch(b, 0) }
func BenchmarkFileWaveSearchEngineDepth16(b *testing.B) { benchFileWaveSearch(b, 16) }

// served is the index at serve-read's shape, built once per process: the
// SIFT clone at n = 100 000, d = 128, σ = 8, split into four hash
// partitions, on a real file (page-cache warm: the build just wrote it).
// The file is unlinked once open, so it goes when the process does.
var served struct {
	once sync.Once
	d    *dataset.Dataset
	ix   *Index
	err  error
}

func servedIndex(b *testing.B) (*dataset.Dataset, *Index) {
	b.Helper()
	served.once.Do(func() { served.d, served.ix, served.err = buildServed() })
	if served.err != nil {
		b.Fatal(served.err)
	}
	return served.d, served.ix
}

func buildServed() (*dataset.Dataset, *Index, error) {
	d, err := dataset.GeneratePaper(dataset.SIFT, 0, 100000, 100)
	if err != nil {
		return nil, nil, err
	}
	cfg := lsh.DefaultConfig()
	cfg.Sigma = 8
	rmin := dataset.NNDistanceQuantile(d, 0.05, 30, 1)
	p, err := lsh.Derive(cfg, d.N(), d.Dim, rmin, lsh.MaxRadius(d.MaxAbs(), d.Dim))
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "diskindex-bench")
	if err != nil {
		return nil, nil, err
	}
	store, _, err := blockstore.OpenFile(filepath.Join(dir, "served.blocks"))
	os.RemoveAll(dir)
	if err != nil {
		return nil, nil, err
	}
	ix, err := Build(d.Vectors, p, DefaultOptions(), store)
	if err != nil {
		return nil, nil, err
	}
	ix.SetPartitions(4)
	return d, ix, nil
}

// BenchmarkServedShape is the wave searcher at k = 10 on the served-shape
// index, in line and through an engine of depth 16. Its vectors (51 MB)
// outgrow the CPU caches, so verification pays the DRAM misses that the
// 20 000-vector benchmarks above never see. Over the warm file the engine
// is not blocking, so its queries walk in line through Engine.Read and read
// the Inline case's blocks: the pair prices the engine's single-block read.
func BenchmarkServedShape(b *testing.B) {
	d, ix := servedIndex(b)
	b.Run("Inline", func(b *testing.B) { benchWaveSearch(b, ix, d.Queries, 10) })
	b.Run("EngineDepth16", func(b *testing.B) {
		benchWaveSearch(b, engineAttached(b, ix, 16, 0, 0), d.Queries, 10)
	})
}

// BenchmarkFileWaveSearchEngineDepth16Parallel is the pair's engine side
// with a searcher per RunParallel goroutine (GOMAXPROCS of them) sharing one
// engine, the shape of BatchSearch: what the engine costs when its callers
// contend. An iteration is one pass over every query by one searcher.
func BenchmarkFileWaveSearchEngineDepth16Parallel(b *testing.B) {
	d, ix := fileBenchIndex(b, 16)
	ctx := context.Background()
	pass := func(s *WaveSearcher, dst []ann.Neighbor) error {
		for _, q := range d.Queries {
			if _, _, err := s.SearchInto(ctx, q, 1, dst); err != nil {
				return err
			}
		}
		return nil
	}
	searchers := make(chan *WaveSearcher, runtime.GOMAXPROCS(0))
	for range cap(searchers) {
		s := ix.NewWaveSearcher()
		if err := pass(s, nil); err != nil { // warmup: size the arenas
			b.Fatal(err)
		}
		searchers <- s
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s, dst := <-searchers, make([]ann.Neighbor, 0, 1)
		for pb.Next() {
			if err := pass(s, dst); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d.NQ()), "ns/query")
}

func BenchmarkBuild20k(b *testing.B) {
	d, p, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(d.Vectors, p, DefaultOptions(), blockstore.NewMem()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyncSearch(b *testing.B) {
	d, _, ix := benchSetup(b)
	s := ix.NewSearcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Search(d.Queries[i%d.NQ()], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSearch measures the serving WaveSearcher with no engine
// attached (in-line reads): the default serving path.
func BenchmarkParallelSearch(b *testing.B) {
	d, _, ix := benchSetup(b)
	ps := ix.NewWaveSearcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ps.Search(d.Queries[i%d.NQ()], 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	d, _, ix := benchSetup(b)
	v := make([]float32, d.Dim)
	copy(v, d.Vectors[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Insert(v); err != nil {
			b.StopTimer()
			// ID space exhausted: rebuild a fresh index and continue.
			_, _, ix = benchSetup(b)
			b.StartTimer()
		}
	}
}

// cachedBenchIndex attaches a cache large enough to hold the whole index and
// warms it, so the benchmark measures the CPU-bound cached hot path (the
// regime the PR-3 block cache creates and PR 4's kernels target).
func cachedBenchIndex(b *testing.B) (*dataset.Dataset, *Index) {
	b.Helper()
	d, _, ix := benchSetup(b)
	ix = engineAttached(b, ix, 16, ix.StorageBytes()*2, 0)
	s := ix.NewSearcher()
	for _, q := range d.Queries {
		if _, _, err := s.Search(q, 1); err != nil {
			b.Fatal(err)
		}
	}
	return d, ix
}

func BenchmarkCachedSyncSearch(b *testing.B) {
	d, ix := cachedBenchIndex(b)
	s := ix.NewSearcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Search(d.Queries[i%d.NQ()], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedSearchInto is the fully arena-backed variant: zero
// steady-state allocations per query.
func BenchmarkCachedSearchInto(b *testing.B) {
	d, ix := cachedBenchIndex(b)
	s := ix.NewSearcher()
	ctx := context.Background()
	dst := make([]ann.Neighbor, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SearchInto(ctx, d.Queries[i%d.NQ()], 1, dst); err != nil {
			b.Fatal(err)
		}
	}
}
