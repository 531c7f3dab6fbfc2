package experiments

import (
	"fmt"
	"math"

	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
	"e2lshos/internal/diskindex"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/ladder"
	"e2lshos/internal/report"
)

// CacheSweepResult reproduces the §6.5 cache analysis as a sweep over the
// blockcache tier: instead of one fixed mmap page cache (93% miss rate in
// the paper), the repeated-query workload runs against block caches from a
// sliver of the index up to the full index, measuring the miss rate and the
// effective N_IO — reads that actually reach the backend — per searcher
// (the sequential reference Searcher and the serving WaveSearcher).
//
// The sweep runs the product cache (2Q over the default stripes). 2Q has no
// inclusion property, so a larger cache is not guaranteed to miss less on
// every stream; on this repeated workload the sequential searcher's miss
// rate still falls as capacity grows, which the test suite asserts.
type CacheSweepResult struct {
	Dataset string
	// Passes is how many times the query set was repeated (the workload
	// skew a cache exploits).
	Passes int
	// LogicalNIO is the uncached mean N_IO per query — what every read
	// costs when it must reach the backend.
	LogicalNIO float64
	Rows       []CacheSweepRow
}

// CacheSweepRow is one cache size's measurements.
type CacheSweepRow struct {
	// CacheBytes is the cache capacity; CacheFrac is its share of the
	// on-storage index size.
	CacheBytes int64
	CacheFrac  float64
	// SeqMissRate / SeqNIO are the sequential searcher's miss rate and
	// effective backend reads per query; Par* are the wave searcher's.
	SeqMissRate float64
	SeqNIO      float64
	ParMissRate float64
	ParNIO      float64
}

// cacheSweepFracs are the swept cache sizes as fractions of the index.
var cacheSweepFracs = []float64{1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0 / 4, 1}

// cacheSweepPasses repeats the query set so the working set is re-touched.
const cacheSweepPasses = 3

// CacheSweep runs the sweep on the SIFT clone at the target accuracy.
func CacheSweep(env *Env) (*CacheSweepResult, error) {
	ws, err := env.Workload(dataset.SIFT)
	if err != nil {
		return nil, err
	}
	disk, err := ws.Disk(env)
	if err != nil {
		return nil, err
	}
	sigma, err := sigmaForRatio(env, ws, 1, env.TargetRatio)
	if err != nil {
		return nil, err
	}
	budget := int(math.Ceil(sigma * float64(ws.Params.L)))
	if budget < 1 {
		budget = 1
	}
	nq := ws.DS.NQ()
	res := &CacheSweepResult{Dataset: ws.DS.Name, Passes: cacheSweepPasses}

	// Uncached baseline: the logical N_IO every configuration pays on the
	// backend when no cache absorbs repeats.
	kn := ladder.Knobs{K: 1, Budget: budget}
	st, err := runSweepSequential(disk, ws, kn)
	if err != nil {
		return nil, err
	}
	res.LogicalNIO = st.MeanIOs()

	// The cached rows attach engines to the workload's shared index; leave
	// it as found for the next experiment.
	defer disk.AttachIOEngine(nil, 0)

	for _, frac := range cacheSweepFracs {
		bytes := int64(float64(disk.StorageBytes()) * frac)
		if bytes < blockstore.BlockSize {
			bytes = blockstore.BlockSize
		}
		row := CacheSweepRow{CacheBytes: bytes, CacheFrac: frac}

		// Sequential searcher: one deterministic stream.
		seq, err := sweepCached(disk, bytes)
		if err != nil {
			return nil, err
		}
		if _, err := runSweepSequential(disk, ws, kn); err != nil {
			return nil, err
		}
		row.SeqMissRate = seq.MissRate()
		row.SeqNIO = float64(seq.Misses()) / float64(cacheSweepPasses*nq)

		// Wave searcher: same workload, each round fetched as waves.
		par, err := sweepCached(disk, bytes)
		if err != nil {
			return nil, err
		}
		ps := disk.NewWaveSearcher()
		for pass := 0; pass < cacheSweepPasses; pass++ {
			for qi := 0; qi < nq; qi++ {
				if _, _, err := searchDisk(ps, ws.DS.Queries[qi], kn); err != nil {
					return nil, err
				}
			}
		}
		row.ParMissRate = par.MissRate()
		row.ParNIO = float64(par.Misses()) / float64(cacheSweepPasses*nq)

		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// sweepCached attaches a fresh product cache of the given size to ix,
// inside the I/O engine every cached read goes through, replacing whatever
// engine was attached before.
func sweepCached(ix *diskindex.Index, bytes int64) (*blockcache.Cache, error) {
	cache, err := blockcache.New(bytes, blockcache.Options{})
	if err != nil {
		return nil, err
	}
	eng, err := ioengine.New(ix.Store(), ioengine.Options{Depth: 8, Cache: cache})
	if err != nil {
		return nil, err
	}
	ix.AttachIOEngine(eng, 0)
	return cache, nil
}

// runSweepSequential answers the repeated workload on a fresh sequential
// searcher over ix and returns the aggregate per-query stats.
func runSweepSequential(ix *diskindex.Index, ws *Workload, kn ladder.Knobs) (diskindex.Stats, error) {
	s := ix.NewSearcher()
	var agg diskindex.Stats
	for pass := 0; pass < cacheSweepPasses; pass++ {
		for qi := 0; qi < ws.DS.NQ(); qi++ {
			_, st, err := searchDisk(s, ws.DS.Queries[qi], kn)
			if err != nil {
				return agg, err
			}
			agg.Merge(st)
		}
	}
	return agg, nil
}

// Render implements Renderable.
func (r *CacheSweepResult) Render() []*report.Table {
	t := report.New(fmt.Sprintf("cachesweep: miss rate and effective N_IO vs cache size (%s, %d passes, uncached N_IO %.1f)",
		r.Dataset, r.Passes, r.LogicalNIO),
		"Cache bytes", "% of index", "Seq miss rate", "Seq N_IO", "Par miss rate", "Par N_IO")
	for _, row := range r.Rows {
		t.AddRow(report.Int(int(row.CacheBytes)), fmt.Sprintf("%.1f%%", row.CacheFrac*100),
			fmt.Sprintf("%.0f%%", row.SeqMissRate*100), report.Num(row.SeqNIO),
			fmt.Sprintf("%.0f%%", row.ParMissRate*100), report.Num(row.ParNIO))
	}
	return []*report.Table{t}
}
