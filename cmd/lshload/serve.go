package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The three serving workloads: a real lshserve child over loopback HTTP,
// driven by two connections, first in a closed loop (throughput) and then on
// a fixed arrival schedule (latency).

// serveSpec is one serving workload's shape.
type serveSpec struct {
	Name    string
	N       int // database size
	Queries int // distinct held-out queries
	Scored  int // of those, how many are scored against brute-force truth
	ZipfS   float64

	// Child flags beyond -addr/-paper/-n/-k/-queries, and the same
	// configuration for the in-process traced run.
	Shards    int // 0 = the shipped default (4)
	CacheMB   int
	IODepth   int
	Readahead int
	WAL       bool

	// SetupReps is how many times the set-up is done (median reported):
	// three where a set-up is 2-3 s, one where it is 5 s or more, because
	// the driver's 92 runs share 57 minutes.
	SetupReps int

	OpenRate float64 // searches (or ops) per second in the open-loop phase
	// serve-mixed-wal only: the read-only phase's rate and the write share.
	ReadOnlyRate float64
	WriteShare   float64
}

func serveRead(o *options) serveSpec {
	s := serveSpec{Name: "serve-read", N: 100000, Queries: 2000, Scored: 300, SetupReps: 3, OpenRate: 250}
	return s.scale(o)
}

func serveHot(o *options) serveSpec {
	s := serveSpec{Name: "serve-hot", N: 100000, Queries: 256, Scored: 256, ZipfS: 1.1,
		Shards: 1, CacheMB: 64, IODepth: 16, Readahead: 2, SetupReps: 3, OpenRate: 300}
	return s.scale(o)
}

func serveMixedWAL(o *options) serveSpec {
	s := serveSpec{Name: "serve-mixed-wal", N: 100000, Queries: 500, Scored: 300,
		WAL: true, SetupReps: 1, OpenRate: 250, ReadOnlyRate: 225, WriteShare: 0.10}
	return s.scale(o)
}

func (s serveSpec) scale(o *options) serveSpec {
	if o.Smoke {
		s.N = 2500 // 12 ID bits: room for the mixed workload's inserts
		s.Queries = min(s.Queries, 100)
		s.Scored = min(s.Scored, 50)
	}
	return s
}

// childArgs are the flags the child is started with. serve-read passes the
// fewest it can, so it stays "what an operator gets" when defaults change.
func (s serveSpec) childArgs(walDir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-paper", "SIFT", "-n", strconv.Itoa(s.N), "-k", strconv.Itoa(k)}
	if s.Shards > 0 {
		args = append(args, "-shards", strconv.Itoa(s.Shards))
	}
	if s.CacheMB > 0 {
		args = append(args, "-cache", strconv.Itoa(s.CacheMB))
	}
	if s.IODepth > 0 {
		args = append(args, "-iodepth", strconv.Itoa(s.IODepth))
	}
	if s.Readahead > 0 {
		args = append(args, "-readahead", strconv.Itoa(s.Readahead))
	}
	if s.WAL {
		args = append(args, "-wal", walDir)
	}
	return args
}

// serveRun is the state of one serving run.
type serveRun struct {
	o    *options
	spec serveSpec
	res  *runResult
	c    *corpus
	cl   *client

	bodies [][]byte // pre-encoded /v1/search body per distinct query

	// clientUS is the latency phase's mean client-side search time, send to
	// reply: the figure the residual is taken from.
	clientUS float64

	// Mutation state (serve-mixed-wal): vectors by insert ordinal, the ID
	// each acked insert was given (-1 until acked), and acked deletes.
	insertVecs [][]float32
	insertIDs  []atomic.Int64
	deleted    []atomic.Bool
	byID       sync.Map // uint32 → []float32, for the distance check
}

// connect points the run at a server and pre-encodes every search body, so
// the generator does no JSON work inside a timed phase.
func (r *serveRun) connect(addr string) {
	r.cl = newClient(addr)
	r.bodies = make([][]byte, r.spec.Queries)
	for i := range r.bodies {
		r.bodies[i] = searchBody(r.c.ds.Queries[i])
	}
}

// prepareWrites derives the vector of every insert in stream and clears the
// acked state.
func (r *serveRun) prepareWrites(stream []request) {
	inserts := 0
	for _, req := range stream {
		if req.Kind == opInsert {
			inserts++
		}
	}
	r.insertVecs = make([][]float32, inserts)
	r.insertIDs = make([]atomic.Int64, inserts)
	r.deleted = make([]atomic.Bool, inserts)
	for i := range r.insertVecs {
		r.insertVecs[i] = insertVector(r.o.Seed, i, r.c.ds.Queries)
		r.insertIDs[i].Store(-1)
	}
}

// vector returns the benchmark's own copy of object id.
func (r *serveRun) vector(id uint32) []float32 {
	if int(id) < len(r.c.ds.Vectors) {
		return r.c.ds.Vectors[id]
	}
	if v, ok := r.byID.Load(id); ok {
		return v.([]float32)
	}
	return nil
}

// do performs one generated request against the server.
func (r *serveRun) do(req request) response {
	switch req.Kind {
	case opInsert:
		resp := r.cl.insert(insertBody(r.insertVecs[req.Arg]))
		if resp.Fail == "" {
			r.byID.Store(resp.ID, r.insertVecs[req.Arg])
			r.insertIDs[req.Arg].Store(int64(resp.ID))
		}
		return resp
	case opDelete:
		// The target insert is at least deleteLag operations old; wait out
		// the rare case where its ack is still in flight on the other worker.
		deadline := time.Now().Add(time.Second)
		for r.insertIDs[req.Arg].Load() < 0 {
			if time.Now().After(deadline) {
				return response{Fail: "delete-target-unacked"}
			}
			time.Sleep(50 * time.Microsecond)
		}
		resp := r.cl.delete(uint32(r.insertIDs[req.Arg].Load()))
		if resp.Fail == "" {
			r.deleted[req.Arg].Store(true)
		}
		return resp
	default:
		return r.cl.search(r.bodies[req.Arg])
	}
}

// phaseResult is one timed phase: its samples in stream order and the
// scrapes around it.
type phaseResult struct {
	name          string
	stream        []request
	offset        int // stream index of the phase's request 0
	span          time.Duration
	samples       []sample
	before, after scrape
}

func (p *phaseResult) request(s sample) request { return p.stream[p.offset+s.Req] }

// runPhase runs one phase (open loop when rate > 0) over stream[offset:],
// scraping the server before and after.
func (r *serveRun) runPhase(ctx context.Context, name string, stream []request, offset int, dur time.Duration, rate float64) (*phaseResult, error) {
	p := &phaseResult{name: name, stream: stream, offset: offset, span: dur}
	var err error
	if p.before, err = r.cl.scrape(); err != nil {
		return nil, err
	}
	do := func(_, i int) response { return r.do(stream[offset+i]) }
	limit := len(stream) - offset
	if rate > 0 {
		p.samples = runOpen(ctx, wallClock{}, connections, rate, dur, limit, do)
	} else {
		p.samples = runClosed(ctx, wallClock{}, connections, dur, limit, do)
	}
	if p.after, err = r.cl.scrape(); err != nil {
		return nil, err
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].Req < p.samples[j].Req })
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// check runs every correctness check over a phase's samples, in stream
// order, and returns the latencies of its searches and inserts in ms. A
// failed request is charged the phase's worst latency.
func (r *serveRun) check(p *phaseResult) (search, insert []timedValue) {
	var worst float64
	for _, s := range p.samples {
		worst = max(worst, s.latency().Seconds()*1e3)
	}
	for _, s := range p.samples {
		req := p.request(s)
		r.res.Attempted++
		fail := s.Resp.Fail
		if fail == "" && req.Kind == opSearch {
			fail = checkNeighbors(r.c.ds.Queries[req.Arg], s.Resp.Neighbors, k, r.vector)
		}
		lat := s.latency().Seconds() * 1e3
		if fail != "" {
			r.res.fail(p.name + ":" + fail)
			lat = worst
		}
		switch req.Kind {
		case opSearch:
			search = append(search, timedValue{s.End, lat})
		case opInsert:
			insert = append(insert, timedValue{s.End, lat})
		}
	}
	return search, insert
}

// firstPassCounts averages the per-query counts over the first full pass of
// the query set in p: N_IO, physical bytes read, ratio and recall. Samples
// are folded in stream order, so the floating-point sums repeat exactly.
func (r *serveRun) firstPassCounts(p *phaseResult) {
	fp := newFirstPass(r.spec.Queries)
	scoredN := 0
	var ratio, recall float64
	for _, s := range p.samples {
		req := p.request(s)
		if req.Kind != opSearch || s.Resp.Fail != "" {
			continue
		}
		if !fp.add(int(req.Arg), float64(s.Resp.NIO)) {
			continue
		}
		if ra, re, ok := r.c.accuracy(int(req.Arg), s.Resp.Neighbors); ok {
			ratio += ra
			recall += re
			scoredN++
		}
	}
	if !fp.complete() {
		r.res.note("first pass incomplete: %d of %d distinct queries answered in %s; per-query counts cover those",
			fp.count, r.spec.Queries, p.name)
	}
	r.res.set("n_io_per_query", fp.mean())
	if scoredN > 0 {
		r.res.set("overall_ratio", ratio/float64(scoredN))
		r.res.set("recall_at_k", recall/float64(scoredN))
	}
	r.res.note("accuracy scored on %d of the first pass's queries against brute-force truth", scoredN)
}

// latencyMetrics reports p50 / p90 / p99 of an open-loop phase's searches.
func (r *serveRun) latencyMetrics(p *phaseResult, lat []timedValue) {
	sum := summarizeLatency(lat, p.span)
	r.res.set("search_p50_ms", sum.P50)
	r.res.set("search_p90_ms", sum.P90)
	r.res.set("serve.search_p99_ms", sum.P99)
	r.res.note("%s: %s", p.name, sum)
	miss := 0
	for _, v := range lat {
		if v.V > sloP99.Seconds()*1e3 {
			miss++
		}
	}
	r.res.set("serve.slo_miss_share", float64(miss)/float64(max(len(lat), 1)))
	var late []float64
	for _, s := range p.samples {
		late = append(late, s.lateness().Seconds()*1e3)
	}
	r.res.set("serve.gen_lateness_p99_ms", quantile(sorted(late), 0.99))
}

func searchEnds(p *phaseResult) []time.Duration {
	var ends []time.Duration
	for _, s := range p.samples {
		if p.request(s).Kind == opSearch && s.Resp.Fail == "" {
			ends = append(ends, s.End)
		}
	}
	return ends
}

// closedLen sizes a closed-loop phase's stream for the fastest plausible
// server, 4000 requests a second; a phase that outruns it ends early.
func closedLen(d time.Duration) int { return int(d.Seconds() * 4000) }

// runServe runs one serving workload end to end.
func runServe(ctx context.Context, o *options, spec serveSpec) (*runResult, error) {
	res := newResult(spec.Name, o)
	r := &serveRun{o: o, spec: spec, res: res}
	res.note("store=mem: lshserve builds every index on a RAM slab today; latencies are this sandbox's, not a device's")

	var walDir string
	if spec.WAL {
		walDir = filepath.Join(o.TmpDir, spec.Name+"-wal")
		res.note("WAL flush policy: fsync on every append (-fsync-every 1, the default), directory %s", walDir)
	}
	// Set-up: corpus and truth on the client, then the child up to /readyz.
	// Where it is cheap it is done several times and the median reported,
	// so a cold first start does not decide the number; the last child stays.
	var ch *child
	defer func() {
		if ch != nil {
			ch.kill()
		}
	}()
	var setups []float64
	for rep := 0; rep < spec.SetupReps; rep++ {
		if ch != nil {
			ch.stop()
			ch = nil
		}
		t0 := time.Now()
		var err error
		if r.c, err = loadCorpus(spec.N, spec.Queries, spec.Scored); err != nil {
			return nil, err
		}
		if ch, err = startChild(ctx, o.LshserveBin, spec.childArgs(walDir)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups))
	res.note("set-up done %d time(s), median reported: %.2f s", len(setups), setups)
	r.connect(ch.addr)
	defer func() { r.cl.close() }()

	warm := genStream(o.Seed^0x5eed, streamSpec{Queries: spec.Queries, ZipfS: spec.ZipfS}, closedLen(o.phase(1)))
	if _, err := r.runPhase(ctx, "warm-up", warm, 0, o.phase(1), 0); err != nil {
		return nil, err
	}

	var err error
	if spec.WriteShare > 0 {
		err = r.mixedPhases(ctx, &ch, walDir)
	} else {
		err = r.readPhases(ctx)
	}
	if err != nil {
		return nil, err
	}
	if _, done := res.Metrics["peak_rss_mb"]; !done {
		res.set("peak_rss_mb", ch.peakRSSMB())
	}
	ch.stop()
	ch = nil
	if spec.WAL {
		os.RemoveAll(walDir)
	}

	if o.Trace {
		trace, err := tracedServe(ctx, o, spec, r.c)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		r.foldTrace(trace)
	}
	return res, nil
}

// readPhases is serve-read and serve-hot: closed loop for throughput, then
// the open loop for latency.
func (r *serveRun) readPhases(ctx context.Context) error {
	o, spec := r.o, r.spec
	closedDur, openDur := o.phase(5), o.phase(5)
	stream := genStream(o.Seed, streamSpec{Queries: spec.Queries, ZipfS: spec.ZipfS}, closedLen(closedDur))
	closed, err := r.runPhase(ctx, "closed-loop", stream, 0, closedDur, 0)
	if err != nil {
		return err
	}
	r.check(closed)
	r.firstPassCounts(closed)
	r.res.set("search_qps", segmentRate(searchEnds(closed), closed.span, 5))

	warm := genStream(o.Seed^0xa11, streamSpec{Queries: spec.Queries, ZipfS: spec.ZipfS}, int(o.phase(1).Seconds()*spec.OpenRate)+1)
	if _, err := r.runPhase(ctx, "warm-up", warm, 0, o.phase(1), spec.OpenRate); err != nil {
		return err
	}
	openStream := genStream(o.Seed+1, streamSpec{Queries: spec.Queries, ZipfS: spec.ZipfS}, int(openDur.Seconds()*spec.OpenRate)+1)
	open, err := r.runPhase(ctx, "open-loop", openStream, 0, openDur, spec.OpenRate)
	if err != nil {
		return err
	}
	lat, _ := r.check(open)
	r.latencyMetrics(open, lat)
	r.res.note("open loop: %.0f searches/s due-time schedule for %s; closed loop: %d clients for %s; SLO p99 <= %s",
		spec.OpenRate, openDur, connections, closedDur, sloP99)
	r.sourceA(open)
	return nil
}

// mixedPhases is serve-mixed-wal: read-only open loop, mixed open loop,
// mixed closed loop, then the crash: SIGKILL, restart on the same directory,
// and every acked write checked on both sides of it.
func (r *serveRun) mixedPhases(ctx context.Context, ch **child, walDir string) error {
	o, spec := r.o, r.spec
	roDur, mixDur, closedDur := o.phase(3), o.phase(5), o.phase(3)

	ro := genStream(o.Seed, streamSpec{Queries: spec.Queries}, int(roDur.Seconds()*spec.ReadOnlyRate)+1)
	roPhase, err := r.runPhase(ctx, "read-only", ro, 0, roDur, spec.ReadOnlyRate)
	if err != nil {
		return err
	}
	roLat, _ := r.check(roPhase)
	r.firstPassCounts(roPhase) // before any write changes the ground truth
	roP99 := summarizeLatency(roLat, roPhase.span).P99
	r.res.set("serve.search_p99_readonly_ms", roP99)

	// One stream spans both mixed phases, so a delete in the closed loop
	// may target an insert the open loop made.
	nOpen := int(mixDur.Seconds() * spec.OpenRate)
	mixed := genStream(o.Seed+1, streamSpec{Queries: spec.Queries, WriteShare: spec.WriteShare}, nOpen+closedLen(closedDur))
	r.prepareWrites(mixed)

	openPhase, err := r.runPhase(ctx, "mixed-open", mixed, 0, mixDur, spec.OpenRate)
	if err != nil {
		return err
	}
	lat, insLat := r.check(openPhase)
	r.latencyMetrics(openPhase, lat)
	if len(insLat) > 0 {
		vals := make([]float64, len(insLat))
		for i, v := range insLat {
			vals[i] = v.V
		}
		r.res.set("wal.insert_p50_ms", median(vals))
	}
	if roP99 > 0 {
		r.res.set("wal.read_stall_factor", r.res.Metrics["serve.search_p99_ms"]/roP99)
	}

	closedPhase, err := r.runPhase(ctx, "mixed-closed", mixed, nOpen, closedDur, 0)
	if err != nil {
		return err
	}
	r.check(closedPhase)
	r.res.set("search_qps", segmentRate(searchEnds(closedPhase), closedPhase.span, 5))
	r.res.note("read-only open loop %.0f/s for %s; mixed open loop %.0f ops/s (%.0f%% search, %.0f%% insert, %.0f%% delete) for %s; mixed closed loop, %d clients, for %s; search_qps counts searches only",
		spec.ReadOnlyRate, roDur, spec.OpenRate, 100*(1-spec.WriteShare), 50*spec.WriteShare, 50*spec.WriteShare, mixDur, connections, closedDur)
	r.sourceA(openPhase)
	if w := delta(openPhase.before, closedPhase.after, "lsh_inserts_total") + delta(openPhase.before, closedPhase.after, "lsh_deletes_total"); w > 0 {
		r.res.set("wal.appends_per_insert", delta(openPhase.before, closedPhase.after, "lsh_wal_appends_total")/w)
	}

	// Durability: every acked write must hold before the kill and after the
	// restart. SIGKILL leaves the OS cache intact, so this proves the log is
	// replayed, not that the device kept its promise.
	r.verifyWrites("before-kill")
	// The first child's peak stands for the run: the restarted one only
	// recovers and answers the verification searches.
	r.res.set("peak_rss_mb", (*ch).peakRSSMB())
	(*ch).kill()
	*ch = nil
	t0 := time.Now()
	restarted, err := startChild(ctx, o.LshserveBin, spec.childArgs(walDir))
	if err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	*ch = restarted
	r.res.set("wal.recover_s", time.Since(t0).Seconds())
	r.cl.close()
	r.cl = newClient(restarted.addr)
	r.verifyWrites("after-restart")
	return nil
}

// verifyWrites checks every acked insert is its own top-1 at distance 0 and
// every acked delete is gone.
func (r *serveRun) verifyWrites(when string) {
	acked, gone := 0, 0
	for ord := range r.insertVecs {
		id := r.insertIDs[ord].Load()
		if id < 0 {
			continue
		}
		v := r.insertVecs[ord]
		resp := r.cl.search(searchBody(v))
		r.res.Attempted++
		switch {
		case resp.Fail != "":
			r.res.fail(when + ":" + resp.Fail)
		case r.deleted[ord].Load():
			gone++
			for _, nb := range resp.Neighbors {
				if nb.ID == uint32(id) {
					r.res.fail(when + ":deleted-object-returned")
					break
				}
			}
		default:
			acked++
			if len(resp.Neighbors) == 0 || resp.Neighbors[0].ID != uint32(id) || resp.Neighbors[0].Dist > 1e-3 {
				r.res.fail(when + ":acked-insert-not-top1")
			}
		}
	}
	r.res.note("%s: %d live acked inserts each their own top-1 at distance 0, %d acked deletes absent", when, acked, gone)
}

// sourceA derives the per-layer metrics the server already emits: /stats and
// /metrics deltas across the latency phase, divided by requests served.
func (r *serveRun) sourceA(lat *phaseResult) {
	res := r.res
	b, a := lat.before, lat.after
	served := delta(b, a, "lsh_served_total")
	if served <= 0 {
		return
	}
	var clientUS, reqB, respB float64
	n := 0
	for _, s := range lat.samples {
		if lat.request(s).Kind != opSearch {
			continue
		}
		clientUS += float64(s.End-s.Start) / 1e3
		reqB += float64(s.Resp.ReqBytes)
		respB += float64(s.Resp.RespBytes)
		n++
	}
	clientUS /= float64(n)
	handlerUS := meanUS(b, a, "lsh_http_request_seconds", "")
	r.clientUS = clientUS
	res.set("serve.net_us", clientUS-handlerUS)
	res.set("serve.request_bytes", reqB/float64(n))
	res.set("serve.response_bytes", respB/float64(n))
	res.set("serve.shed_share", delta(b, a, "lsh_shed_total")/float64(len(lat.samples)))
	res.set("serve.failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.set("coalesce.wait_us", meanUS(b, a, "lsh_coalesce_wait_seconds", ""))
	res.set("diskindex.query_us", meanUS(b, a, "lsh_query_latency_seconds", `{stage="total"}`))
	res.set("shard.wait_us", meanUS(b, a, "lsh_query_latency_seconds", `{stage="shard_wait"}`))

	q := delta(b, a, "lsh_stats_queries_total")
	per := func(key string) float64 { return delta(b, a, "lsh_stats_"+key+"_total") / q }
	res.set("diskindex.radii_per_query", per("radii"))
	res.set("diskindex.probes_per_query", per("probes"))
	res.set("diskindex.checked_per_query", per("checked"))
	res.set("diskindex.entries_scanned_per_query", per("entries_scanned"))
	res.set("diskindex.fp_rejected_per_query", per("fp_rejected"))
	res.set("diskindex.duplicates_per_query", per("duplicates"))
	if r.spec.IODepth > 0 {
		res.set("ioengine.op_us", meanUS(b, a, "lsh_query_latency_seconds", `{stage="io_op"}`))
		res.set("ioengine.ops_per_query", per("n_io"))
		res.set("ioengine.coalesced_per_query", per("coalesced_reads"))
		res.set("ioengine.deduped_per_query", per("deduped_reads"))
		res.set("ioengine.physical_ops_per_query", per("physical_reads"))
	}
	res.set("blockcache.prefetched_per_query", per("prefetched_blocks"))
	hits, misses := per("cache_hits"), per("cache_misses")
	if hits+misses > 0 {
		res.set("blockcache.hit_ratio", hits/(hits+misses))
	}
	// Bytes that reached the store: logical reads minus those the cache and
	// the dedup table absorbed.
	res.set("blockstore.read_bytes_per_query", (per("n_io")-hits-per("deduped_reads"))*512)
}
