// Command layers is lshload's source C: direct calls into the repo's leaf
// functions, timed in isolation, printed as one JSON object of
// layer.metric → value. It is the only part of the benchmark that imports
// leaf internals; lshload runs it as a sub-step and still reports every
// end-to-end metric if this program fails to build or run after a refactor.
//
// Each number is the median of five timed loops, so one scheduler stall does
// not move it.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/coalesce"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/lsh"
	"e2lshos/internal/shard"
	"e2lshos/internal/vecmath"
	"e2lshos/internal/wal"
)

const dim = 128

// perOp runs body, which performs ops operations, five times and returns the
// median time per operation.
func perOp(ops int, body func()) (nanos float64) {
	body() // warm
	ts := make([]float64, 5)
	for i := range ts {
		t0 := time.Now()
		body()
		ts[i] = float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(ts)
	return ts[len(ts)/2] / float64(ops)
}

func us(nanos float64) float64 { return nanos / 1e3 }

var sink float64

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(1))
	vec := func() []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.Intn(256))
		}
		return v
	}
	vecs := make([][]float32, 256)
	for i := range vecs {
		vecs[i] = vec()
	}
	q := vec()

	// lsh / vecmath: the projection GEMV at the n=100000 index's shape under
	// the default config (L = 13 tables of M = 24 functions, 312 rows of
	// 128), and the verify kernel.
	const m, l = 24, 13
	fam, err := lsh.NewFamily(dim, m, l, 4, rng)
	if err != nil {
		return err
	}
	proj := make([]float64, fam.NumProjections())
	out["lsh.project_us"] = us(perOp(2000, func() {
		for i := 0; i < 2000; i++ {
			fam.ProjectInto(proj, q)
		}
	}))
	rows := make([]float32, m*l*dim)
	for i := range rows {
		rows[i] = float32(rng.NormFloat64())
	}
	panels := vecmath.PackPanels(rows, m*l, dim)
	out["vecmath.matvec_ns"] = perOp(2000, func() {
		for i := 0; i < 2000; i++ {
			vecmath.MatVec(proj, panels, q)
		}
	})
	out["vecmath.sqdist_ns_d128"] = perOp(256*200, func() {
		for r := 0; r < 200; r++ {
			for _, v := range vecs {
				d, _ := vecmath.SqDistBounded(v, q, 1e18)
				sink += d
			}
		}
	})
	dists := make([]float64, 4096)
	for i := range dists {
		dists[i] = rng.Float64()
	}
	topk := ann.NewTopK(10)
	out["ann.topk_push_ns"] = perOp(len(dists)*20, func() {
		for r := 0; r < 20; r++ {
			topk.Reset(10)
			for i, d := range dists {
				topk.Push(uint32(i), d)
			}
		}
	})

	// blockstore: one block read from the RAM slab and from a file, and the
	// per-block checksum.
	block := make([]byte, blockstore.BlockSize)
	for i := range block {
		block[i] = byte(rng.Intn(256))
	}
	const blocks = 8192
	addrs := make([]blockstore.Addr, blocks)
	mem := blockstore.NewMem()
	dir, err := os.MkdirTemp("", "lshload-layers-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	file, f, err := blockstore.OpenFile(filepath.Join(dir, "blocks"))
	if err != nil {
		return err
	}
	defer f.Close()
	for i := range addrs {
		addrs[i] = mem.Allocate()
		file.Allocate()
		if err := mem.WriteBlock(addrs[i], block); err != nil {
			return err
		}
		if err := file.WriteBlock(addrs[i], block); err != nil {
			return err
		}
	}
	random := make([]blockstore.Addr, 4096)
	for i := range random {
		random[i] = addrs[rng.Intn(blocks)]
	}
	buf := make([]byte, blockstore.BlockSize)
	var readErr error
	readAll := func(s *blockstore.Store) func() {
		return func() {
			for _, a := range random {
				if err := s.ReadBlock(a, buf); err != nil {
					readErr = err
				}
			}
		}
	}
	out["blockstore.read_block_ns_mem"] = perOp(len(random), readAll(mem))
	out["blockstore.read_block_ns_file"] = perOp(len(random), readAll(file))
	out["blockstore.checksum_ns"] = perOp(4096, func() {
		for i := 0; i < 4096; i++ {
			sink += float64(blockstore.Checksum(block))
		}
	})

	// ioengine: one vectored round of 64 random blocks at depth 16.
	eng, err := ioengine.New(mem, ioengine.Options{Depth: 16})
	if err != nil {
		return err
	}
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = make([]byte, blockstore.BlockSize)
	}
	ctx := context.Background()
	out["ioengine.read_vec_us_depth16"] = us(perOp(200, func() {
		for r := 0; r < 200; r++ {
			var st ioengine.BatchStats
			if err := eng.ReadBatch(ctx, random[r*16%4000:r*16%4000+64], bufs, &st); err != nil {
				readErr = err
			}
		}
	}))
	if readErr != nil {
		return readErr
	}

	// blockcache: a hit, and a put into a full cache.
	cache, err := blockcache.New(4096*blockstore.BlockSize, blockcache.Options{})
	if err != nil {
		return err
	}
	for _, a := range addrs[:2048] {
		cache.Put(a, block)
	}
	out["blockcache.get_hit_ns"] = perOp(2048*4, func() {
		for r := 0; r < 4; r++ {
			for _, a := range addrs[:2048] {
				cache.Get(a, buf)
			}
		}
	})
	out["blockcache.put_ns"] = perOp(blocks, func() {
		for _, a := range addrs {
			cache.Put(a, block)
		}
	})

	// coalesce: one Submit into an idle coalescer at the shipped MaxDelay.
	// Nothing else arrives, so the batch is cut by the timer: this is the
	// floor every request of a 2-connection workload pays.
	batcher := coalesce.New(func(_ context.Context, qs [][]float32) ([]int, error) {
		return make([]int, len(qs)), nil
	}, coalesce.Config{MaxBatch: 32, MaxDelay: 500 * time.Microsecond})
	out["coalesce.submit_idle_us"] = us(perOp(200, func() {
		for i := 0; i < 200; i++ {
			if _, err := batcher.Do(ctx, q); err != nil {
				readErr = err
			}
		}
	}))
	batcher.Close()

	// shard: a 4-way scatter-gather whose shards do nothing.
	globals, err := shard.Partition(4096, 4, shard.Hash)
	if err != nil {
		return err
	}
	router, err := shard.NewRouter[int](globals)
	if err != nil {
		return err
	}
	empty := ann.Result{}
	out["shard.scatter_noop_us"] = us(perOp(2000, func() {
		for i := 0; i < 2000; i++ {
			router.Search(ctx, q, 10, func(context.Context, int, []float32) (ann.Result, int, error) {
				return empty, 0, nil
			})
		}
	}))

	// wal: Append+Sync of one insert-sized record, fsync on every append.
	log, _, err := wal.Open(filepath.Join(dir, "wal.log"), wal.Options{FsyncEvery: 1}, func(wal.Record) error { return nil })
	if err != nil {
		return err
	}
	rec := wal.Record{Type: wal.RecordInsert, ID: 1, Vec: q}
	out["wal.append_sync_us"] = us(perOp(100, func() {
		for i := 0; i < 100; i++ {
			if err := log.Append(rec); err != nil {
				readErr = err
			}
			if err := log.Sync(); err != nil {
				readErr = err
			}
		}
	}))
	if err := log.Close(); err != nil {
		return err
	}
	if readErr != nil {
		return readErr
	}
	_ = sink
	return json.NewEncoder(os.Stdout).Encode(out)
}
