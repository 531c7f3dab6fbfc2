// Serving: the full serving subsystem in one process. One storage index is
// split into hash partitions (WithShards, as lshserve -shards builds it),
// served through lshserve's HTTP handler with the query coalescer batching
// concurrent callers, and hammered by a concurrent client load; throughput
// comes from the wall clock and recall from the server's own shadow scoring.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"e2lshos"
)

func main() {
	ds, err := e2lshos.GenerateDataset(e2lshos.DatasetSpec{
		Name: "serving", N: 20000, Queries: 200, Dim: 64,
		Clusters: 25, Spread: 0.05, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	const (
		shards = 4
		k      = 5
	)

	// One index, four hash partitions: a query walks the hash tables once
	// and each partition climbs its own radius ladder with its own budget
	// and top-k.
	ix, err := e2lshos.NewStorageIndex(ds.Vectors, e2lshos.Config{Sigma: 64},
		e2lshos.WithShards(shards))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("storage index: %d hash partitions, n=%d\n", shards, ds.N())

	srv, err := e2lshos.NewServer(ix, e2lshos.ServerConfig{
		Dim: ds.Dim, K: k,
		MaxBatch: 32, MaxQueue: 1 << 14,
		Exact: e2lshos.GroundTruth(ds, k),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("lshserve handler up at %s\n\n", ts.URL)

	// Concurrent client load: every worker fires single-query requests; the
	// coalescer regroups them into batches for the engines.
	const (
		workers  = 16
		requests = 2000
	)
	var wg sync.WaitGroup
	var failed sync.Map
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := w; r < requests; r += workers {
				qi := r % ds.NQ()
				body, _ := json.Marshal(map[string]any{"query": ds.Queries[qi], "qid": qi})
				resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Store(r, err)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failed.Store(r, fmt.Errorf("status %d", resp.StatusCode))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	nFailed := 0
	failed.Range(func(_, _ any) bool { nFailed++; return true })

	var stats struct {
		Queries    int     `json:"queries"`
		NIO        int     `json:"n_io"`
		MeanIOs    float64 `json:"mean_ios"`
		MeanRadii  float64 `json:"mean_radii"`
		Shed       uint64  `json:"shed"`
		MeanRecall float64 `json:"mean_recall"`
		MeanRatio  float64 `json:"mean_ratio"`
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	fmt.Printf("%d requests on %d client workers in %v (%d failed, %d shed)\n",
		requests, workers, elapsed.Round(time.Millisecond), nFailed, stats.Shed)
	fmt.Printf("throughput: %.0f queries/s end to end\n", float64(requests)/elapsed.Seconds())
	fmt.Printf("per query:  %.1f I/Os, %.1f radius rounds\n",
		stats.MeanIOs, stats.MeanRadii)
	fmt.Printf("accuracy:   recall@%d %.3f, overall ratio %.4f (server shadow scoring)\n",
		k, stats.MeanRecall, stats.MeanRatio)
}
