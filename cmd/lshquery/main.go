// Command lshquery builds (or loads) an E2LSHoS index over a dataset file
// and answers its query set, reporting per-query neighbors, the overall
// ratio against exact ground truth, and the batch's I/O statistics.
// Ctrl-C cancels an in-flight batch cleanly.
//
// Usage:
//
//	lshdatagen -paper SIFT -scale 0.01 -out sift.e2ds
//	lshquery -data sift.e2ds -index sift.e2ix -k 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"e2lshos"
	"e2lshos/internal/dataset"
)

func main() {
	var (
		dataPath = flag.String("data", "", "dataset file (required)")
		idxPath  = flag.String("index", "", "index file; built and saved if missing")
		k        = flag.Int("k", 1, "neighbors per query")
		sigma    = flag.Float64("sigma", 8, "candidate budget multiplier (accuracy knob)")
		maxQ     = flag.Int("queries", 10, "queries to answer (0 = all)")
		workers  = flag.Int("workers", 0, "batch worker goroutines (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "lshquery: -data is required")
		os.Exit(2)
	}
	if *k < 1 {
		fmt.Fprintln(os.Stderr, "lshquery: -k must be at least 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ds, err := dataset.LoadFile(*dataPath)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dataset %s: n=%d queries=%d dim=%d\n", ds.Name, ds.N(), ds.NQ(), ds.Dim)

	var ix *e2lshos.StorageIndex
	if *idxPath != "" {
		if _, statErr := os.Stat(*idxPath); statErr == nil {
			fmt.Printf("loading index %s\n", *idxPath)
			ix, err = e2lshos.OpenStorageIndex(*idxPath, ds.Vectors)
		}
	}
	if ix == nil && err == nil {
		fmt.Println("building index...")
		start := time.Now()
		ix, err = e2lshos.NewStorageIndex(ds.Vectors, e2lshos.Config{Sigma: *sigma})
		if err == nil {
			fmt.Printf("built in %v: %d bytes on storage, %d bytes DRAM metadata\n",
				time.Since(start).Round(time.Millisecond), ix.StorageBytes(), ix.MemBytes())
			if *idxPath != "" {
				if err := ix.SaveFile(*idxPath); err != nil {
					fail(err)
				}
				fmt.Printf("saved index to %s\n", *idxPath)
			}
		}
	}
	if err != nil {
		fail(err)
	}

	nq := ds.NQ()
	if *maxQ > 0 && *maxQ < nq {
		nq = *maxQ
	}
	gt := e2lshos.GroundTruth(ds.Subset(ds.N()), *k)
	start := time.Now()
	results, stats, err := ix.BatchSearch(ctx, ds.Queries[:nq],
		e2lshos.WithK(*k), e2lshos.WithWorkers(*workers))
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	var ratioSum float64
	for qi, res := range results {
		ratio := e2lshos.OverallRatio(res, gt[qi], *k)
		ratioSum += ratio
		fmt.Printf("query %d: ratio %.4f, nearest id %v\n", qi, ratio, res.IDs())
	}
	fmt.Printf("answered %d queries in %v (%.2f ms/query), mean overall ratio %.4f\n",
		nq, elapsed.Round(time.Millisecond),
		float64(elapsed.Milliseconds())/float64(nq), ratioSum/float64(nq))
	fmt.Printf("per query: %.1f radii, %.1f I/Os (%.1f table + %.1f bucket), %.1f candidates checked\n",
		stats.MeanRadii(), stats.MeanIOs(),
		float64(stats.TableIOs)/float64(stats.Queries),
		float64(stats.BucketIOs)/float64(stats.Queries),
		stats.MeanChecked())
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "lshquery: %v\n", err)
	os.Exit(1)
}
