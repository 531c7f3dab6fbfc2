package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"e2lshos"
)

// lib-file-batch: the root package's API in-process, the index on a real
// file through the benchmark's own pread/pwrite backend. No HTTP, no
// coalescer, no shards: the radius ladder, the projection and verify kernels,
// the I/O engine and the file do all the work. It is the paper's own
// quantity — queries per second and N_IO on storage.

type libSpec struct {
	N, Queries, Scored int
	IODepth            int
}

func libFileBatch(o *options) libSpec {
	if o.Smoke {
		return libSpec{N: 2500, Queries: 100, Scored: 50, IODepth: 16}
	}
	return libSpec{N: 200000, Queries: 1000, Scored: 500, IODepth: 16}
}

// fileIndex is a StorageIndex on a file, with the counting backend under it.
// The recorder stays off until the traced pass; client is the span that pass
// opens around each Search, the parent of the backend's reads.
type fileIndex struct {
	ix     *e2lshos.StorageIndex
	be     *countingBackend
	fb     *fileBackend
	rec    *recorder
	client cursor
	path   string
	buildS float64
}

func buildFileIndex(path string, vectors [][]float32, depth int) (*fileIndex, error) {
	fb, err := newFileBackend(path)
	if err != nil {
		return nil, err
	}
	fx := &fileIndex{fb: fb, path: path, rec: newRecorder()}
	fx.be = &countingBackend{inner: fb, rec: fx.rec, parent: &fx.client.cur}
	t0 := time.Now()
	ix, err := e2lshos.NewStorageIndex(vectors, e2lshos.Config{Sigma: 8},
		e2lshos.WithStorageBackend(fx.be), e2lshos.WithIOEngine(depth))
	if err != nil {
		fb.Close()
		os.Remove(path)
		return nil, err
	}
	fx.ix, fx.buildS = ix, time.Since(t0).Seconds()
	return fx, nil
}

func (f *fileIndex) close() {
	f.fb.Close()
	os.Remove(f.path)
}

func sameNeighbors(a, b e2lshos.Result) bool {
	if len(a.Neighbors) != len(b.Neighbors) {
		return false
	}
	for i := range a.Neighbors {
		if a.Neighbors[i].ID != b.Neighbors[i].ID ||
			math.Float64bits(a.Neighbors[i].Dist) != math.Float64bits(b.Neighbors[i].Dist) {
			return false
		}
	}
	return true
}

func runLib(ctx context.Context, o *options) (*runResult, error) {
	spec := libFileBatch(o)
	res := newResult("lib-file-batch", o)
	res.note("store=file: blocks on a real temp file via pread/pwrite, OS page cache warm (the build just wrote it); latencies are this sandbox's, not a device's")

	// Set-up: corpus, brute-force truth, and the index built onto the file.
	t0 := time.Now()
	c, err := loadCorpus(spec.N, spec.Queries, spec.Scored)
	if err != nil {
		return nil, err
	}
	fx, err := buildFileIndex(filepath.Join(o.TmpDir, "lib-file-batch.blocks"), c.ds.Vectors, spec.IODepth)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	res.set("setup_s", time.Since(t0).Seconds())
	queries := c.ds.Queries
	vector := func(id uint32) []float32 {
		if int(id) < len(c.ds.Vectors) {
			return c.ds.Vectors[id]
		}
		return nil
	}
	batchOpts := []e2lshos.SearchOption{e2lshos.WithK(k), e2lshos.WithWorkers(connections)}

	// First full pass: discarded from timing, but it is where the counts,
	// the accuracy and the reference answers come from.
	ops0, blocks0 := fx.be.counts()
	first, st, err := fx.ix.BatchSearch(ctx, queries, batchOpts...)
	if err != nil {
		return nil, err
	}
	ops1, blocks1 := fx.be.counts()
	nq := float64(len(queries))
	var ratio, recall float64
	for qi, r := range first {
		res.Attempted++
		if fail := checkNeighbors(queries[qi], fromResult(r), k, vector); fail != "" {
			res.fail("first-pass:" + fail)
		}
		if ra, re, ok := c.accuracy(qi, fromResult(r)); ok {
			ratio += ra
			recall += re
		}
	}
	res.set("n_io_per_query", float64(st.IOs())/nq)
	res.set("overall_ratio", ratio/float64(len(c.truth)))
	res.set("recall_at_k", recall/float64(len(c.truth)))
	res.note("accuracy scored on the first %d queries against brute-force truth", len(c.truth))
	res.set("blockstore.read_bytes_per_query", float64(blocks1-blocks0)*512/nq)
	res.set("blockstore.backend_ops_per_query", float64(ops1-ops0)/nq)
	res.set("blockstore.backend_bytes_per_query", float64(blocks1-blocks0)*512/nq)
	if ops1 > ops0 {
		res.set("blockstore.blocks_per_op", float64(blocks1-blocks0)/float64(ops1-ops0))
	}
	per := func(v int) float64 { return float64(v) / nq }
	res.set("diskindex.radii_per_query", per(st.Radii))
	res.set("diskindex.probes_per_query", per(st.Probes))
	res.set("diskindex.checked_per_query", per(st.Checked))
	res.set("diskindex.entries_scanned_per_query", per(st.EntriesScanned))
	res.set("diskindex.fp_rejected_per_query", per(st.FPRejected))
	res.set("diskindex.duplicates_per_query", per(st.Duplicates))
	res.set("ioengine.ops_per_query", per(st.IOs()))
	res.set("ioengine.coalesced_per_query", per(st.CoalescedReads))
	res.set("ioengine.deduped_per_query", per(st.DedupedReads))
	res.set("ioengine.physical_ops_per_query", per(st.PhysicalReads))
	res.set("diskindex.build_s", fx.buildS)
	res.set("diskindex.index_bytes_per_vector_byte", float64(fx.ix.StorageBytes())/float64(spec.N*c.ds.Dim*4))

	// Throughput: BatchSearch passes for 8/12 of the run; the median pass.
	var passes []float64
	for end := time.Now().Add(o.phase(8)); time.Now().Before(end); {
		t := time.Now()
		got, _, err := fx.ix.BatchSearch(ctx, queries, batchOpts...)
		if err != nil {
			return nil, err
		}
		passes = append(passes, time.Since(t).Seconds())
		for qi := range got {
			res.Attempted++
			if !sameNeighbors(got[qi], first[qi]) {
				res.fail("batch-pass:answer-changed")
			}
		}
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("lib-file-batch: no BatchSearch pass fit in %s", o.phase(8))
	}
	res.set("search_qps", nq/median(passes))
	sp := sorted(passes)
	res.note("BatchSearch(k=%d, workers=%d) over %d queries: %d timed passes, median pass %.3fs, fastest %.3fs, slowest %.3fs (first pass discarded)",
		k, connections, len(queries), len(passes), median(passes), sp[0], sp[len(sp)-1])

	// Latency: sequential Search in seed order for 4/12 of the run.
	order := rand.New(rand.NewSource(o.Seed)).Perm(len(queries))
	var lat []timedValue
	seqStart := time.Now()
	seqDur := o.phase(4)
	for i := 0; time.Since(seqStart) < seqDur && ctx.Err() == nil; i++ {
		qi := order[i%len(order)]
		t := time.Now()
		got, _, err := fx.ix.Search(ctx, queries[qi], e2lshos.WithK(k))
		d := time.Since(t)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if !sameNeighbors(got, first[qi]) {
			res.fail("sequential:answer-differs-from-batch")
		}
		lat = append(lat, timedValue{time.Since(seqStart), d.Seconds() * 1e3})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sum := summarizeLatency(lat, seqDur)
	res.set("search_p50_ms", sum.P50)
	res.set("search_p90_ms", sum.P90)
	res.set("serve.search_p99_ms", sum.P99)
	var total float64
	for _, v := range lat {
		total += v.V
	}
	res.set("diskindex.query_us", total/float64(len(lat))*1e3)
	res.note("sequential Search for %s: %s", seqDur, sum)
	res.set("peak_rss_mb", peakRSSMB(os.Getpid()))

	if o.Trace {
		if err := libTrace(ctx, o, spec, c, fx, first, res); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return res, nil
}

// libTrace is source B for lib-file-batch: a traced sequential pass with the
// backend's reads as spans, the facade's per-call costs, the image round
// trip, the n/4 index for the scaling exponent, and the mutation costs.
func libTrace(ctx context.Context, o *options, spec libSpec, c *corpus, fx *fileIndex, first []e2lshos.Result, res *runResult) error {
	queries := c.ds.Queries
	rec := fx.rec
	rec.on.Store(true)
	n := min(tracedRequests, 2*len(queries))
	for i := 0; i < n && ctx.Err() == nil; i++ {
		rec.beginRequest(i + 1)
		done := fx.client.enter(rec, layerClient, "search", 0)
		_, st, err := fx.ix.Search(ctx, queries[i%len(queries)], e2lshos.WithK(k))
		done(map[string]int64{"n_io": int64(st.IOs())})
		if err != nil {
			return err
		}
	}
	rec.on.Store(false)
	backendOps := fx.be.takeSpans()
	table := analyze(rec.spans, backendOps)
	res.set("diskindex.compute_us", table.SelfUS[layerClient])
	res.set("blockstore.backend_us", table.SelfUS[layerBackend])
	res.set("serve.trace_overhead_ms", table.ClientP50MS-res.Metrics["search_p50_ms"])
	o.logf("  (lib-file-batch has no HTTP layers: the client span is the Search call, its self time is the engine's compute)\n")
	table.print(o.Log, "lib-file-batch")
	if err := appendTraceFile(o.TracePath, "lib-file-batch", rec.spans, backendOps, rec); err != nil {
		return err
	}

	facadeCosts(ctx, fx.ix, queries[:min(len(queries), 300)], res.Metrics)

	// Image round trip: SaveFile, OpenStorageIndex, and the reopened image
	// must answer bitwise-equal to the file-backed index.
	image := filepath.Join(o.TmpDir, "lib-file-batch.image")
	defer os.Remove(image)
	t0 := time.Now()
	if err := fx.ix.SaveFile(image); err != nil {
		return err
	}
	res.set("diskindex.save_s", time.Since(t0).Seconds())
	t0 = time.Now()
	reopened, err := e2lshos.OpenStorageIndex(image, c.ds.Vectors, e2lshos.WithIOEngine(spec.IODepth))
	if err != nil {
		return err
	}
	res.set("diskindex.open_s", time.Since(t0).Seconds())
	check := queries[:min(len(queries), 200)]
	got, _, err := reopened.BatchSearch(ctx, check, e2lshos.WithK(k), e2lshos.WithWorkers(connections))
	if err != nil {
		return err
	}
	for qi := range got {
		res.Attempted++
		if !sameNeighbors(got[qi], first[qi]) {
			res.fail("reopened-image:answer-differs")
		}
	}
	res.note("reopened image answered %d queries bitwise-equal to the file-backed index", len(check))

	// Fig 14's sublinearity: per-query time at n against n/4.
	small, err := buildFileIndex(filepath.Join(o.TmpDir, "lib-file-batch.quarter"), c.ds.Vectors[:spec.N/4], spec.IODepth)
	if err != nil {
		return err
	}
	defer small.close()
	timeBatch := func(ix *e2lshos.StorageIndex) float64 {
		var ts []float64
		for i := 0; i < 5; i++ {
			t := time.Now()
			ix.BatchSearch(ctx, queries, e2lshos.WithK(k), e2lshos.WithWorkers(connections))
			ts = append(ts, time.Since(t).Seconds())
		}
		return median(ts[1:])
	}
	if tSmall := timeBatch(small.ix); tSmall > 0 {
		res.set("diskindex.scaling_exponent", math.Log(timeBatch(fx.ix)/tSmall)/math.Log(4))
	}

	insUS, delUS, err := mutationCosts(fx.ix, o.Seed, queries)
	if err != nil {
		return err
	}
	res.set("diskindex.insert_us", insUS)
	res.set("diskindex.delete_us", delUS)
	return nil
}
