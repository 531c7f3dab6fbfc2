package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"e2lshos"
)

// The traced run (source B): the same request stream, one request in flight,
// against an in-process http.Server over NewServer(engine).Handler() with
// lshserve's default ServerConfig. Spans are recorded from this file only:
// around the HTTP call (client), in a wrapping http.Handler (serve), in an
// Engine decorator (engine), in the engines a wrapping ShardBuilder returns
// (shard), and in the benchmark's own Backend (backend). It is separate from
// the timed run; the difference between their medians is the tracing
// overhead.

// tracedRequests is how many requests the traced run sends per workload.
const tracedRequests = 2000

// tracedEngine decorates an Engine with a span per call. It forwards Insert
// and Delete so the server's mutation routes keep working.
type tracedEngine struct {
	inner  e2lshos.Engine
	rec    *recorder
	parent *cursor // the serve layer
	cur    cursor
	layer  string
}

func (t *tracedEngine) Search(ctx context.Context, q []float32, opts ...e2lshos.SearchOption) (e2lshos.Result, e2lshos.Stats, error) {
	done := t.cur.enter(t.rec, t.layer, "search", t.parent.cur.Load())
	res, st, err := t.inner.Search(ctx, q, opts...)
	done(map[string]int64{"queries": 1, "n_io": int64(st.IOs())})
	return res, st, err
}

func (t *tracedEngine) BatchSearch(ctx context.Context, qs [][]float32, opts ...e2lshos.SearchOption) ([]e2lshos.Result, e2lshos.Stats, error) {
	done := t.cur.enter(t.rec, t.layer, "batch-search", t.parent.cur.Load())
	res, st, err := t.inner.BatchSearch(ctx, qs, opts...)
	done(map[string]int64{"queries": int64(len(qs)), "n_io": int64(st.IOs())})
	return res, st, err
}

// updater is the mutation surface StorageIndex offers.
type updater interface {
	Insert(v []float32) (uint32, error)
	Delete(id uint32) (bool, error)
}

func (t *tracedEngine) Insert(v []float32) (uint32, error) {
	u, ok := t.inner.(updater)
	if !ok {
		return 0, fmt.Errorf("engine does not support online updates")
	}
	done := t.cur.enter(t.rec, t.layer, "insert", t.parent.cur.Load())
	id, err := u.Insert(v)
	done(nil)
	return id, err
}

func (t *tracedEngine) Delete(id uint32) (bool, error) {
	u, ok := t.inner.(updater)
	if !ok {
		return false, fmt.Errorf("engine does not support online updates")
	}
	done := t.cur.enter(t.rec, t.layer, "delete", t.parent.cur.Load())
	removed, err := u.Delete(id)
	done(nil)
	return removed, err
}

// EnableTelemetry lets ShardedIndex.EnableTelemetry reach a wrapped shard,
// as it reaches the child's shards.
func (t *tracedEngine) EnableTelemetry(opts ...e2lshos.TelemetryOption) error {
	if e, ok := t.inner.(interface {
		EnableTelemetry(...e2lshos.TelemetryOption) error
	}); ok {
		return e.EnableTelemetry(opts...)
	}
	return nil
}

// storageOptions are the in-process equivalents of the child's flags.
func (s serveSpec) storageOptions() []e2lshos.StorageOption {
	var opts []e2lshos.StorageOption
	if s.CacheMB > 0 {
		opts = append(opts, e2lshos.WithBlockCache(int64(s.CacheMB)<<20))
		if s.Readahead > 0 {
			opts = append(opts, e2lshos.WithReadahead(s.Readahead))
		}
	}
	if s.IODepth > 0 {
		opts = append(opts, e2lshos.WithIOEngine(s.IODepth))
	}
	return opts
}

// tracedStack is the in-process serving stack with every wrapper in place.
type tracedStack struct {
	rec      *recorder
	client   cursor
	serve    cursor
	engine   *tracedEngine
	plain    e2lshos.Engine        // the undecorated top engine
	storage  *e2lshos.StorageIndex // the engine itself, or the shard when there is one
	backends []*countingBackend
	buildS   float64
}

// backendCounts sums the physical reads and blocks of every backend.
func (st *tracedStack) backendCounts() (ops, blocks int64) {
	for _, be := range st.backends {
		o, b := be.counts()
		ops, blocks = ops+o, blocks+b
	}
	return ops, blocks
}

// buildTraced builds the workload's engine exactly as lshserve would, with
// the benchmark's backends and span wrappers inserted.
func buildTraced(spec serveSpec, vectors [][]float32, walDir string) (*tracedStack, error) {
	st := &tracedStack{rec: newRecorder()}
	st.engine = &tracedEngine{rec: st.rec, parent: &st.serve, layer: layerEngine}
	t0 := time.Now()
	cfg := e2lshos.Config{Sigma: 8}
	opts := spec.storageOptions()
	if spec.WAL {
		be := &countingBackend{inner: &memBackend{}, rec: st.rec, parent: &st.engine.cur.cur}
		st.backends = append(st.backends, be)
		six, err := e2lshos.NewStorageIndex(vectors, cfg, append(opts, e2lshos.WithStorageBackend(be), e2lshos.WithWAL(walDir))...)
		if err != nil {
			return nil, err
		}
		if err := six.EnableTelemetry(); err != nil {
			return nil, err
		}
		st.plain, st.storage = six, six
	} else {
		shards := spec.Shards
		if shards == 0 {
			shards = 4
		}
		scfg := e2lshos.ShardConfig(cfg, vectors, shards)
		build := func(_ int, part [][]float32) (e2lshos.Engine, error) {
			sh := &tracedEngine{rec: st.rec, parent: &st.engine.cur, layer: layerShard}
			be := &countingBackend{inner: &memBackend{}, rec: st.rec, parent: &sh.cur.cur}
			st.backends = append(st.backends, be)
			six, err := e2lshos.NewStorageIndex(part, scfg, append(opts[:len(opts):len(opts)], e2lshos.WithStorageBackend(be))...)
			if err != nil {
				return nil, err
			}
			sh.inner = six
			st.storage = six
			return sh, nil
		}
		ix, err := e2lshos.NewShardedIndex(vectors, shards, e2lshos.PlaceHash, build)
		if err != nil {
			return nil, err
		}
		if err := ix.EnableTelemetry(); err != nil {
			return nil, err
		}
		st.plain = ix
	}
	st.engine.inner = st.plain
	st.buildS = time.Since(t0).Seconds()
	return st, nil
}

// tracedResult is what the traced run adds to a workload's per-layer table.
type tracedResult struct {
	table   layerTable
	metrics map[string]float64
}

// tracedServe runs source B for one serving workload.
func tracedServe(ctx context.Context, o *options, spec serveSpec, c *corpus) (*tracedResult, error) {
	walDir := ""
	if spec.WAL {
		walDir = filepath.Join(o.TmpDir, spec.Name+"-traced-wal")
		defer os.RemoveAll(walDir)
	}
	st, err := buildTraced(spec, c.ds.Vectors, walDir)
	if err != nil {
		return nil, err
	}
	out := &tracedResult{metrics: map[string]float64{"diskindex.build_s": st.buildS}}

	srv, err := e2lshos.NewServer(st.engine, e2lshos.ServerConfig{
		Dim: c.ds.Dim, K: k, MaxBatch: 32, MaxDelay: 500 * time.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	inner := srv.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if len(r.URL.Path) < 4 || r.URL.Path[:4] != "/v1/" {
			inner.ServeHTTP(w, r) // scrapes are not requests under test
			return
		}
		done := st.serve.enter(st.rec, layerServe, r.URL.Path, st.client.cur.Load())
		inner.ServeHTTP(w, r)
		done(nil)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	run := &serveRun{o: o, spec: spec, res: newResult(spec.Name, o), c: c}
	run.connect(ln.Addr().String())
	defer run.cl.close()
	n := tracedRequests
	if o.Smoke {
		n = 200
	}
	stream := genStream(o.Seed, streamSpec{Queries: spec.Queries, ZipfS: spec.ZipfS, WriteShare: spec.WriteShare}, n)
	run.prepareWrites(stream)

	// Untraced warm-up, then the recorder goes on.
	for i := 0; i < min(n/10, len(stream)); i++ {
		if stream[i].Kind == opSearch {
			run.do(stream[i])
		}
	}
	st.rec.on.Store(true)
	before, err := run.cl.scrape()
	if err != nil {
		return nil, err
	}
	ops0, blocks0 := st.backendCounts()
	searches := 0
	// Paced like the open loop (same rate, one worker), so the client span
	// includes what a request pays after the connection sat idle — the
	// condition search_p50_ms is measured under.
	interval := time.Duration(float64(time.Second) / spec.OpenRate)
	start := time.Now()
	for i, req := range stream {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if wait := time.Duration(i)*interval - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		st.rec.beginRequest(i + 1)
		done := st.client.enter(st.rec, layerClient, req.Kind.String(), 0)
		resp := run.do(req)
		done(map[string]int64{"request_bytes": int64(resp.ReqBytes), "response_bytes": int64(resp.RespBytes)})
		if resp.Fail != "" {
			return nil, fmt.Errorf("traced request %d failed: %s", i, resp.Fail)
		}
		if req.Kind == opSearch {
			searches++
		}
	}
	st.rec.on.Store(false)
	after, err := run.cl.scrape()
	if err != nil {
		return nil, err
	}
	ops, blocks := st.backendCounts()
	ops, blocks = ops-ops0, blocks-blocks0
	var backendOps []opSpan
	for _, be := range st.backends {
		backendOps = append(backendOps, be.takeSpans()...)
	}

	out.table = analyze(st.rec.spans, backendOps)
	t := out.table
	m := out.metrics
	waitUS := meanUS(before, after, "lsh_coalesce_wait_seconds", "")
	m["serve.handler_self_us"] = t.SelfUS[layerServe] - waitUS
	m["shard.scatter_self_us"] = t.ScatterSelfUS
	m["shard.skew_us"] = t.SkewUS
	m["diskindex.compute_us"] = t.SelfUS[layerEngine] + t.SelfUS[layerShard]
	m["blockstore.backend_us"] = t.SelfUS[layerBackend]
	m["blockstore.backend_ops_per_query"] = float64(ops) / float64(searches)
	m["blockstore.backend_bytes_per_query"] = float64(blocks) * 512 / float64(searches)
	if ops > 0 {
		m["blockstore.blocks_per_op"] = float64(blocks) / float64(ops)
	}

	if err := appendTraceFile(o.TracePath, spec.Name, st.rec.spans, backendOps, st.rec); err != nil {
		return nil, err
	}

	// Direct facade calls on the same in-process engine.
	facadeCosts(ctx, st.plain, c.ds.Queries[:min(len(c.ds.Queries), 300)], m)
	if spec.WAL {
		// WAL on is this engine; WAL off is a second index over the same data.
		onUS, _, err := mutationCosts(st.storage, o.Seed, c.ds.Queries)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := st.storage.Checkpoint(); err != nil {
			return nil, err
		}
		m["diskindex.checkpoint_s"] = time.Since(t0).Seconds()
		off, err := e2lshos.NewStorageIndex(c.ds.Vectors, e2lshos.Config{Sigma: 8}, e2lshos.WithStorageBackend(&memBackend{}))
		if err != nil {
			return nil, err
		}
		offUS, delUS, err := mutationCosts(off, o.Seed, c.ds.Queries)
		if err != nil {
			return nil, err
		}
		m["diskindex.insert_us"], m["diskindex.delete_us"] = offUS, delUS
		m["wal.commit_us"] = onUS - offUS
	} else if spec.Shards == 1 {
		insUS, delUS, err := mutationCosts(st.storage, o.Seed, c.ds.Queries)
		if err != nil {
			return nil, err
		}
		m["diskindex.insert_us"], m["diskindex.delete_us"] = insUS, delUS
	}
	return out, nil
}

// facadeCosts times the facade's per-call overhead on eng: sequential Search
// against a one-worker BatchSearch, whose worker reuses one searcher, and the
// allocations of a Search.
func facadeCosts(ctx context.Context, eng e2lshos.Engine, queries [][]float32, into map[string]float64) {
	eng.BatchSearch(ctx, queries, e2lshos.WithK(k), e2lshos.WithWorkers(1)) // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for _, q := range queries {
		eng.Search(ctx, q, e2lshos.WithK(k))
	}
	seq := time.Since(t0)
	runtime.ReadMemStats(&after)
	t0 = time.Now()
	eng.BatchSearch(ctx, queries, e2lshos.WithK(k), e2lshos.WithWorkers(1))
	batch := time.Since(t0)
	n := float64(len(queries))
	into["facade.search_self_us"] = (seq - batch).Seconds() * 1e6 / n
	into["facade.alloc_bytes_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	into["facade.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / n
}

// mutationCosts inserts and then deletes 200 seed-derived vectors on ix,
// returning the median microseconds of each.
func mutationCosts(ix *e2lshos.StorageIndex, seed int64, pool [][]float32) (insertUS, deleteUS float64, err error) {
	const m = 200
	ids := make([]uint32, m)
	ins := make([]float64, m)
	del := make([]float64, m)
	for i := range ids {
		v := insertVector(seed^0x1235, 100000+i, pool)
		t0 := time.Now()
		if ids[i], err = ix.Insert(v); err != nil {
			return 0, 0, err
		}
		ins[i] = time.Since(t0).Seconds() * 1e6
	}
	for i, id := range ids {
		t0 := time.Now()
		if _, err = ix.Delete(id); err != nil {
			return 0, 0, err
		}
		del[i] = time.Since(t0).Seconds() * 1e6
	}
	return median(ins), median(del), nil
}

// foldTrace merges the traced run into the workload's result: the per-layer
// metrics, the tracing overhead and the residual — the client's mean latency
// in the timed run minus every part some layer accounts for.
func (r *serveRun) foldTrace(t *tracedResult) {
	res := r.res
	for name, v := range t.metrics {
		res.set(name, v)
	}
	res.set("serve.trace_overhead_ms", t.table.ClientP50MS-res.Metrics["search_p50_ms"])
	wait, engine := res.Metrics["coalesce.wait_us"], res.Metrics["diskindex.query_us"]
	handler, gap := t.metrics["serve.handler_self_us"], t.table.SelfUS[layerClient]
	residual := r.clientUS - (wait + engine + handler + gap)
	res.set("serve.residual_us", residual)
	res.note("residual: client mean %.0f us - (coalesce wait %.0f + engine %.0f + handler self %.0f + client/loopback %.0f) = %.0f us (%.1f%%)",
		r.clientUS, wait, engine, handler, gap, residual, 100*residual/r.clientUS)
	t.table.print(r.o.Log, r.spec.Name)
}
