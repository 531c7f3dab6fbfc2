// Command lshserve serves approximate nearest neighbor queries over HTTP
// from one storage index whose objects are split into N hash partitions, each
// with its own radius ladder and top-k over one walk of the hash tables,
// fronted by the query coalescer, exposed as a JSON API.
//
// Usage:
//
//	lshserve -addr :8080 -paper SIFT -n 20000 -shards 4
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/search -d '{"query":[...128 floats...],"k":5}'
//	curl -s -X POST localhost:8080/v1/search \
//	    -d '{"query":[...],"k":5,"recall_target":0.9,"latency_budget_ms":5}'
//	curl -s localhost:8080/stats          # cumulative Stats incl. N_IO
//
// The -autotune / -recall-target / -latency-budget flags set server-default
// SLOs (per-request /v1/search knobs override them). -maxbatch and -iodepth
// are fixed for the life of the process.
//
// SIGINT/SIGTERM drain in-flight requests and shut the server down cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"e2lshos"
	"e2lshos/internal/blockstore"
)

// servingGCPercent is the collector's target once the index is built.
const servingGCPercent = 20

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintf(os.Stderr, "lshserve: %v\n", err)
		os.Exit(1)
	}
}

// run builds the index and serves until ctx is canceled. ready, if non-nil,
// receives the bound listen address once the server accepts connections
// (tests use it with -addr 127.0.0.1:0).
func run(ctx context.Context, args []string, out io.Writer, ready func(addr net.Addr)) error {
	fs := flag.NewFlagSet("lshserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		paper     = fs.String("paper", "SIFT", "paper dataset to clone (Table 1 name)")
		n         = fs.Int("n", 20000, "database size")
		queries   = fs.Int("queries", 100, "held-out queries kept for shadow scoring")
		shards    = fs.Int("shards", 4, "hash partitions of one index, each with its own ladder and top-k (one walk of the hash tables serves all of them)")
		k         = fs.Int("k", 10, "top-k searched per query")
		sigma     = fs.Float64("sigma", 8, "per-radius candidate budget multiplier (accuracy knob)")
		maxBatch  = fs.Int("maxbatch", 32, "coalescer: max queries per batch (batches form while every execution slot is busy: one slot per processor)")
		maxQueue  = fs.Int("maxqueue", 0, "coalescer: admission bound (0 = 4x maxbatch)")
		cacheMB   = fs.Int("cache", 0, "block cache in MiB (0 = uncached)")
		readahead = fs.Int("readahead", 0, "bucket blocks prefetched per chain between radius rounds, into the block cache (0 = off)")
		ioDepth   = fs.Int("iodepth", 0, "vectored I/O engine queue depth: batched round submission, adjacent-block coalescing (0 = no engine: in-line reads, each bucket walked block by block; or depth 16 when -cache or -retries attach one)")
		retries   = fs.Int("retries", 0, "per-block read retries with backoff before a fault degrades the query (0 = off)")
		metrics   = fs.Bool("metrics", true, "enable engine latency telemetry (per-stage histograms, served at /metrics)")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceSamp = fs.Float64("trace-sample", 0, "fraction of queries traced per stage, in [0,1] (0 = histograms only)")
		slowQuery = fs.Duration("slowquery", 0, "dump the span trace of sampled queries slower than this to stderr (0 = off)")
		autotune  = fs.Bool("autotune", false, "enable the per-query autotune controller (required by the SLO flags below; /v1/search requests can then set per-request targets)")
		recallTgt = fs.Float64("recall-target", 0, "server-default recall target in (0,1): stop each radius ladder once the learned self-recall model clears it (0 = off; implies -autotune)")
		latBudget = fs.Duration("latency-budget", 0, "server-default per-query latency budget; queries degrade knobs mid-ladder to fit (0 = off; implies -autotune)")
		degrade   = fs.String("degrade", "knobs", "out-of-budget behavior: knobs (graceful degradation) or stop")
		walDir    = fs.String("wal", "", "WAL directory for durable online updates (POST /v1/insert, DELETE /v1/object/{id}): serves one crash-safe storage index in one partition (-shards does not apply), recovering from the directory when it already holds a checkpoint; the dataset flags must match across restarts (generation is deterministic)")
		fsyncEver = fs.Int("fsync-every", 1, "WAL group commit: fsync the log every N appends (needs -wal; N>1 trades a bounded ack-durability window for update throughput)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	degradePolicy, err := e2lshos.ParseDegradePolicy(*degrade)
	if err != nil {
		return err
	}
	if *recallTgt > 0 || *latBudget > 0 {
		*autotune = true
	}
	// The facade validates how storage options combine (and the engine
	// builders below surface its error); zero values are "not asked for".
	storageOpts := []e2lshos.StorageOption{
		e2lshos.WithBlockCache(int64(*cacheMB) << 20),
		e2lshos.WithReadahead(*readahead),
		e2lshos.WithIOEngine(*ioDepth),
		e2lshos.WithRetries(*retries),
	}

	// Checked before the dataset is generated: a bad value should not cost
	// the whole build first.
	switch {
	case *k < 1:
		return fmt.Errorf("-k must be at least 1, got %d", *k)
	case *shards < 1:
		return fmt.Errorf("-shards must be at least 1, got %d", *shards)
	case *fsyncEver < 1:
		return fmt.Errorf("-fsync-every must be at least 1, got %d", *fsyncEver)
	case *fsyncEver != 1 && *walDir == "":
		return fmt.Errorf("-fsync-every needs -wal (it tunes the log's group commit)")
	}

	fmt.Fprintf(out, "generating %s clone: n=%d, %d held-out queries\n", *paper, *n, *queries)
	ds, err := e2lshos.GeneratePaperDataset(e2lshos.PaperDataset(*paper), 0, *n, *queries)
	if err != nil {
		return err
	}

	var eng *e2lshos.StorageIndex
	if *walDir != "" {
		// WAL mode: one crash-safe storage index in one partition. The log
		// would cover partitions too; one is the shape this mode serves, by
		// choice.
		walOpts := append(storageOpts, e2lshos.WithFsyncEvery(*fsyncEver))
		eng, err = e2lshos.OpenWALIndex(*walDir, ds.Vectors, walOpts...)
		switch {
		case err == nil:
			rst := eng.RecoveryStats()
			fmt.Fprintf(out, "recovered WAL generation %d from %s: %d records replayed (torn tail: %v)\n",
				rst.Generation, *walDir, rst.Replayed, rst.TornTail)
		case errors.Is(err, os.ErrNotExist):
			fmt.Fprintf(out, "building crash-safe storage engine, logging to %s\n", *walDir)
			eng, err = e2lshos.NewStorageIndex(ds.Vectors, e2lshos.Config{Sigma: *sigma},
				append(walOpts, e2lshos.WithWAL(*walDir))...)
		}
	} else {
		// One index, one walk of its tables per query; each hash partition
		// climbs its own ladder, so the answers are those of -shards storage
		// shards behind a router, at one partition's I/O.
		fmt.Fprintf(out, "building one storage index in %d hash partitions (a ladder and top-k each over one table walk); %d execution slots\n",
			*shards, runtime.GOMAXPROCS(0))
		eng, err = e2lshos.NewStorageIndex(ds.Vectors, e2lshos.Config{Sigma: *sigma},
			append(storageOpts, e2lshos.WithShards(*shards))...)
	}
	if err != nil {
		return err
	}
	if *metrics || *traceSamp > 0 || *slowQuery > 0 {
		topts := []e2lshos.TelemetryOption{e2lshos.WithTracing(*traceSamp)}
		if *slowQuery > 0 {
			topts = append(topts, e2lshos.WithSlowQueryLog(*slowQuery))
		}
		if err := eng.EnableTelemetry(topts...); err != nil {
			return err
		}
	}
	if *autotune {
		eng.EnableAutotune()
		fmt.Fprintf(out, "autotune on (recall target %g, latency budget %v, degrade %s)\n",
			*recallTgt, *latBudget, degradePolicy)
	}
	srv, err := e2lshos.NewServer(eng, e2lshos.ServerConfig{
		Dim:      ds.Dim,
		K:        *k,
		MaxBatch: *maxBatch,
		MaxQueue: *maxQueue,
		Opts: []e2lshos.SearchOption{e2lshos.WithTuning(e2lshos.SearchTuning{
			RecallTarget:  *recallTgt,
			LatencyBudget: *latBudget,
			Degrade:       degradePolicy,
		})},
		Exact: e2lshos.GroundTruth(ds, *k),
		Pprof: *pprofOn,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	// The build leaves a heap goal sized by its own garbage; collecting once
	// here sizes it from what serving keeps live. On unix the index store's
	// chunks live outside that heap, so RSS reads as vectors + heap + store.
	debug.FreeOSMemory()
	// Nearly all of what stays live is the vectors: immutable and free of
	// pointers, so a collection marks them in a few milliseconds of CPU. At
	// GOGC's default of 100 request garbage grows to their size before each
	// cycle and RSS with it; a lower target keeps RSS near the live data for
	// a GC CPU share under 1%. An operator's GOGC still wins.
	if _, set := os.LookupEnv("GOGC"); !set {
		defer debug.SetGCPercent(debug.SetGCPercent(servingGCPercent))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(out, "live Go heap %.1f MB; index store %.1f MB held outside it\n",
		float64(ms.HeapAlloc)/(1<<20), float64(blockstore.OffHeapBytes())/(1<<20))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(out, "listening on %s (POST /v1/search, GET /stats, GET /metrics, GET /healthz, GET /readyz)\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr())
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(out, "served %d queries, %d I/Os total (%.1f per query)\n",
		st.Queries, st.IOs(), st.MeanIOs())
	return nil
}
