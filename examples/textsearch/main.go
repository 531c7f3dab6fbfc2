// Text search: a GloVe-like embedding workload with top-10 retrieval,
// exercising the persistence path a production deployment would use: build
// once, save the index file, reopen it and serve the query batch on a
// worker pool, each worker fetching its query's radius rounds as waves of
// block reads.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"e2lshos"
)

func main() {
	ctx := context.Background()

	ds, err := e2lshos.GeneratePaperDataset(e2lshos.GLOVE, 0, 15000, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GLOVE clone: %d embeddings, %d dims\n", ds.N(), ds.Dim)

	dir, err := os.MkdirTemp("", "e2lshos-textsearch")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	idxPath := filepath.Join(dir, "glove.e2ix")

	// Build and persist.
	start := time.Now()
	ix, err := e2lshos.NewStorageIndex(ds.Vectors, e2lshos.Config{Sigma: 32})
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.SaveFile(idxPath); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(idxPath)
	fmt.Printf("built and saved in %v (%.1f MiB index file)\n",
		time.Since(start).Round(time.Millisecond), float64(st.Size())/(1<<20))

	// Reopen — the deployment path: the index file plus the raw vectors.
	reopened, err := e2lshos.OpenStorageIndex(idxPath, ds.Vectors)
	if err != nil {
		log.Fatal(err)
	}

	const k = 10
	gt := e2lshos.GroundTruth(ds, k)
	start = time.Now()
	results, stats, err := reopened.BatchSearch(ctx, ds.Queries, e2lshos.WithK(k))
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	var ratio, recall float64
	for qi, res := range results {
		ratio += e2lshos.OverallRatio(res, gt[qi], k)
		recall += e2lshos.Recall(res, gt[qi], k)
	}
	nq := float64(ds.NQ())
	fmt.Printf("top-%d over %d queries: %.2f ms/query, overall ratio %.4f, recall %.2f\n",
		k, ds.NQ(), float64(elapsed.Microseconds())/nq/1000, ratio/nq, recall/nq)
	fmt.Printf("served with %.1f I/Os and %.1f radii per query\n",
		stats.MeanIOs(), stats.MeanRadii())
}
