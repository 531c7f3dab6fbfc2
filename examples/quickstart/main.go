// Quickstart: build an in-memory E2LSH index and an on-storage E2LSHoS index
// over the same synthetic data, query both through the shared Engine
// interface, and check accuracy against exact ground truth.
package main

import (
	"context"
	"fmt"
	"log"

	"e2lshos"
)

func main() {
	ctx := context.Background()

	// 1. Generate a clustered synthetic dataset: 10k points in 64 dims, with
	//    100 held-out queries drawn from the same distribution.
	ds, err := e2lshos.GenerateDataset(e2lshos.DatasetSpec{
		Name: "quickstart", N: 10000, Queries: 100, Dim: 64,
		Clusters: 20, Spread: 0.05, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d points, %d queries, %d dims\n", ds.N(), ds.NQ(), ds.Dim)

	// 2. Build both indexes. Sigma is the accuracy knob (candidate budget).
	cfg := e2lshos.Config{Sigma: 16}
	mem, err := e2lshos.NewInMemoryIndex(ds.Vectors, cfg)
	if err != nil {
		log.Fatal(err)
	}
	disk, err := e2lshos.NewStorageIndex(ds.Vectors, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-memory index: %.1f MiB on DRAM\n", float64(mem.IndexBytes())/(1<<20))
	fmt.Printf("E2LSHoS index:   %.1f MiB on storage, %.2f MiB DRAM metadata\n",
		float64(disk.StorageBytes())/(1<<20), float64(disk.MemBytes())/(1<<20))

	// 3. Both indexes satisfy the same Engine interface, so one loop queries
	//    them both: a batch per engine, answered on a worker pool.
	const k = 5
	gt := e2lshos.GroundTruth(ds, k)
	for _, eng := range []struct {
		name   string
		engine e2lshos.Engine
	}{
		{"in-memory", mem},
		{"E2LSHoS", disk},
	} {
		results, stats, err := eng.engine.BatchSearch(ctx, ds.Queries, e2lshos.WithK(k))
		if err != nil {
			log.Fatal(err)
		}
		var ratio float64
		for qi, res := range results {
			ratio += e2lshos.OverallRatio(res, gt[qi], k)
		}
		fmt.Printf("%-10s mean overall ratio %.4f (1.0 = exact), %.1f radii and %.0f candidates per query\n",
			eng.name, ratio/float64(ds.NQ()), stats.MeanRadii(), stats.MeanChecked())
	}

	// 4. Inspect one answer, with its per-query I/O statistics.
	res, stats, err := disk.Search(ctx, ds.Queries[0], e2lshos.WithK(k))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 0 cost %d I/Os; neighbors:\n", stats.IOs())
	for rank, nb := range res.Neighbors {
		fmt.Printf("  #%d  id=%d  dist=%.3f\n", rank+1, nb.ID, nb.Dist)
	}
}
