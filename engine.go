package e2lshos

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/autotune"
	"e2lshos/internal/coalesce"
	"e2lshos/internal/ladder"
	"e2lshos/internal/memindex"
	"e2lshos/internal/telemetry"
)

// Engine is the one query interface the E2LSH engines satisfy: InMemoryIndex,
// StorageIndex, and ShardedIndex over either. Engine-generic code (benchmark
// harnesses, serving layers, shards) programs against it and never needs to
// know where the index lives.
//
// Both engines honor the same knobs, so one option list drives a
// heterogeneous sharded tree:
//
//	knob            InMemory  Storage
//	WithK              ✓         ✓
//	WithBudget         ✓         ✓
//	WithMultiProbe     ✓         ✓
//	WithWorkers      (batch)  (batch)
type Engine interface {
	// Search answers one top-k query. ctx cancels the radius-ladder walk
	// between rounds; on cancellation the neighbors found so far are
	// returned together with ctx.Err().
	Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error)
	// BatchSearch answers a query batch on a pool of worker goroutines,
	// each reusing one searcher across its share of the batch. Results are
	// positionally aligned with queries; Stats is the batch aggregate. On
	// cancellation or error the queries answered so
	// far — not necessarily a contiguous prefix, since workers interleave
	// — keep their results, unanswered slots are zero Results, and the
	// first error is returned.
	BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error)
}

// Compile-time interface conformance for all three engines.
var (
	_ Engine = (*InMemoryIndex)(nil)
	_ Engine = (*StorageIndex)(nil)
	_ Engine = (*ShardedIndex)(nil)
)

// searchSettings is the resolved option set of one Search or BatchSearch. The
// embedded Knobs are what every query of the call runs under — unless each is
// set, and then query i runs under each[i]: a coalesced serving batch holds
// queries whose requests asked for different things. each is built once per
// batch and shared read-only by every shard and worker below.
type searchSettings struct {
	ladder.Knobs
	each      []ladder.Knobs
	workers   int
	statsInto []Stats
}

// SearchOption tunes one Search or BatchSearch call; see the Engine table
// for which engines honor which.
type SearchOption func(*searchSettings)

// WithK sets the number of neighbors to return (default 1, the paper's
// c²-ANNS setting).
func WithK(k int) SearchOption { return func(s *searchSettings) { s.K = k } }

// WithBudget caps verified candidates per radius: the paper's S = σ·L
// accuracy knob, no rebuild needed. Zero keeps the engine's built-in budget.
func WithBudget(s int) SearchOption { return func(st *searchSettings) { st.Budget = s } }

// WithMultiProbe probes each hash table at its base bucket plus t perturbed
// neighbors (§8 extension), buying recall without enlarging the index, up to
// maxMultiProbe. On StorageIndex the extra probes join each radius round's
// fetch waves.
func WithMultiProbe(t int) SearchOption { return func(s *searchSettings) { s.MultiProbe = t } }

// WithWorkers sets BatchSearch's goroutine pool size (default GOMAXPROCS).
// Search ignores it.
func WithWorkers(n int) SearchOption { return func(s *searchSettings) { s.workers = n } }

// WithTuning attaches a per-query SLO contract (recall target, latency
// budget, degradation policy). It has effect only on engines with
// EnableAutotune on; without a tuner the contract is silently ignored, like
// any other unsupported knob.
func WithTuning(t SearchTuning) SearchOption { return func(s *searchSettings) { s.Tuning = t } }

// WithStatsInto asks for per-query stats: query i of the batch (index 0 for
// Search) writes its individual Stats into dst[i], in addition to the
// aggregate return. Queries beyond len(dst) are not recorded; unanswered
// slots keep their previous contents.
func WithStatsInto(dst []Stats) SearchOption {
	return func(s *searchSettings) { s.statsInto = dst }
}

// withSettings replaces the whole settings block with *set as it stands when
// the callee resolves: how a layer that has already resolved a call (the
// server, the shard router) hands the result down as one value.
func withSettings(set *searchSettings) SearchOption {
	return func(s *searchSettings) { *s = *set }
}

// resolveSettings applies opts over the defaults and validates the result for
// a call of nq queries.
func resolveSettings(opts []SearchOption, nq int) (searchSettings, error) {
	var s searchSettings
	err := resolveInto(&s, opts, nq)
	return s, err
}

// resolveInto is resolveSettings into caller-owned storage: options are
// opaque functions over a *searchSettings, so a settings block declared
// where it is resolved is a heap allocation per call.
func resolveInto(s *searchSettings, opts []SearchOption, nq int) error {
	*s = searchSettings{Knobs: ladder.Knobs{K: 1}}
	for _, o := range opts {
		o(s)
	}
	if s.workers < 0 {
		return fmt.Errorf("e2lshos: negative worker count %d", s.workers)
	}
	if s.each != nil && len(s.each) != nq {
		return fmt.Errorf("e2lshos: %d per-query settings for %d queries", len(s.each), nq)
	}
	if err := checkKnobs(s.Knobs); err != nil {
		return err
	}
	for _, kn := range s.each {
		if err := checkKnobs(kn); err != nil {
			return err
		}
	}
	return nil
}

// maxMultiProbe bounds the perturbed probes per table one query may ask for:
// a searcher sizes its probe arenas by L·(1+multi-probe) and keeps them.
// Nothing in the tree asks for more than 4.
const maxMultiProbe = 1024

// checkKnobs is the one validation of what a query may ask for, whether the
// ask arrived as options or as /v1/search fields.
func checkKnobs(kn ladder.Knobs) error {
	switch {
	case kn.K < 1:
		return fmt.Errorf("e2lshos: k must be at least 1, got %d", kn.K)
	case kn.Budget < 0:
		return fmt.Errorf("e2lshos: negative candidate budget %d", kn.Budget)
	case kn.MultiProbe < 0 || kn.MultiProbe > maxMultiProbe:
		return fmt.Errorf("e2lshos: multi-probe count must be in [0, %d], got %d", maxMultiProbe, kn.MultiProbe)
	case kn.Tuning.RecallTarget < 0 || kn.Tuning.RecallTarget >= 1:
		return fmt.Errorf("e2lshos: recall target must be in [0, 1), got %g", kn.Tuning.RecallTarget)
	case kn.Tuning.LatencyBudget < 0:
		return fmt.Errorf("e2lshos: negative latency budget %v", kn.Tuning.LatencyBudget)
	case kn.Tuning.Degrade > DegradeStop:
		return fmt.Errorf("e2lshos: unknown degrade policy %d", kn.Tuning.Degrade)
	}
	return nil
}

// querier is one engine's per-goroutine searcher: scratch buffers and
// nothing else; the engines' searchers are queriers as they stand.
// Everything a query may set arrives in kn, so a querier can serve any query
// of its engine. dst, when non-nil, provides the backing array for the
// returned Result's neighbors (its contents are overwritten); BatchSearch
// hands each query a distinct slab segment so the per-query steady state
// allocates nothing. A nil dst asks the querier to allocate fresh backing.
// Not safe for concurrent use.
type querier interface {
	Run(ctx context.Context, q []float32, kn ladder.Knobs, dst []ann.Neighbor) (Result, Stats, error)
}

// freeList is a stack of idle values behind a mutex: the reuse pattern of
// everything on the serve path that is expensive or wasteful to rebuild per
// call — searchers, the per-batch worker-pool state, the server's
// per-request decode state. It is a plain stack rather than a sync.Pool:
// what it holds must not depend on when the garbage collector last ran. It
// keeps at most one idle value per processor (more could never all run at
// once); what a wider burst hands back beyond that is dropped.
type freeList[T any] struct {
	mu   sync.Mutex
	idle []T
}

// take pops the most recently returned value, or the zero T when none is
// idle.
func (f *freeList[T]) take() (v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.idle)
	if n == 0 {
		return v
	}
	var zero T
	v, f.idle[n-1] = f.idle[n-1], zero
	f.idle = f.idle[:n-1]
	return v
}

// give hands a value back to the free list.
func (f *freeList[T]) give(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.idle) < runtime.GOMAXPROCS(0) {
		f.idle = append(f.idle, v)
	}
}

// searchers is the reusable state every engine embeds: the idle queriers
// Search and every BatchSearch worker check out and hand back — so the O(n)
// visited array and the arenas behind a querier are built once per
// concurrent caller, not once per call — and the idle worker-pool states of
// finished BatchSearch calls.
type searchers struct {
	queriers freeList[querier]
	runs     freeList[*batchRun]
}

func (s *searchers) scratch() *searchers { return s }

// engineCore is what each engine contributes to the shared Search /
// BatchSearch machinery: a querier factory, the free lists in front of it,
// and the telemetry and autotune anchors (every engine embeds searchers,
// telem and tune).
type engineCore interface {
	newQuerier() querier
	scratch() *searchers
	collector() *telemetry.Collector
	tuner() *autotune.Tuner
}

// checkout takes an idle querier off e's free list, or builds one.
func checkout(e engineCore) querier {
	if qr := e.scratch().queriers.take(); qr != nil {
		return qr
	}
	return e.newQuerier()
}

// call is what one Search or BatchSearch resolved before its first query:
// the settings, the engine's collector and tuner as they stood then, and —
// for a coalesced batch — how long each query sat in the coalescer.
type call struct {
	set   searchSettings
	col   *telemetry.Collector
	tn    *autotune.Tuner
	waits []time.Duration
}

// run answers query i of the call on qr. With a collector it times the query
// and, when the sampler picks it, hands the searcher a span trace; with a
// tuner it hands the ladder the tuner, which starts the query's controllers —
// even untuned queries get them, since they run the full ladder anyway and
// train the recall/latency model for free. A coalescer wait is stamped onto
// the trace, and the controllers' clock starts that much earlier, at
// admission. Both disabled, the cost is two nil checks.
func (c *call) run(ctx context.Context, qr querier, q []float32, i int, dst []ann.Neighbor) (Result, Stats, error) {
	kn := c.set.Knobs
	if c.set.each != nil {
		kn = c.set.each[i]
	}
	if c.col == nil && c.tn == nil {
		return qr.Run(ctx, q, kn, dst)
	}
	var wait time.Duration
	if i < len(c.waits) {
		wait = c.waits[i]
	}
	if c.col != nil {
		kn.Trace = c.col.StartTrace()
		if kn.Trace != nil && i < len(c.waits) {
			kn.Trace.Add(telemetry.StageCoalesceWait, -1, 0, wait, 0, 0)
		}
	}
	t0 := time.Now()
	kn.Tuner, kn.Admitted = c.tn, t0.Add(-wait)
	res, st, err := qr.Run(ctx, q, kn, dst)
	if c.col != nil {
		c.col.FinishQuery(time.Since(t0), kn.Trace)
	}
	return res, st, err
}

// engineSearch implements Engine.Search over an engineCore.
func engineSearch(ctx context.Context, e engineCore, q []float32, opts []SearchOption) (Result, Stats, error) {
	set, err := resolveSettings(opts, 1)
	if err != nil {
		return Result{}, Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, Stats{}, err
	}
	c := call{set: set, col: e.collector(), tn: e.tuner()}
	qr := checkout(e)
	res, st, err := c.run(ctx, qr, q, 0, nil)
	e.scratch().queriers.give(qr)
	if len(set.statsInto) > 0 {
		set.statsInto[0] = st
	}
	return res, st, err
}

// batchRun is the state one BatchSearch's worker pool shares: the resolved
// call, the batch, and where the workers claim queries and fold what they
// did. A finished run goes back to the engine's free list, so a one-query
// batch — what the serving coalescer cuts whenever the engine keeps up —
// does not pay for a fresh set of counters, a settings block and a cancel
// context every time.
type batchRun struct {
	call
	ctx     context.Context
	e       engineCore
	queries [][]float32
	results []Result
	slab    []ann.Neighbor

	next atomic.Int64
	stop atomic.Bool // a query failed: claim no more
	wg   sync.WaitGroup

	mu       sync.Mutex
	agg      Stats
	firstErr error
}

// fail records the batch's first error and stops the workers claiming more.
func (r *batchRun) fail(err error) {
	r.stop.Store(true)
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// work is one pool goroutine: it checks out a querier and reuses it across
// the queries it claims. A panic inside a searcher fails the batch instead of
// the process, and the querier it happened in is not put back.
func (r *batchRun) work() {
	defer r.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			r.fail(fmt.Errorf("%w: %v", coalesce.ErrPanic, p))
		}
	}()
	qr := checkout(r.e)
	k := r.set.K
	var local Stats
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.queries) || r.stop.Load() || r.ctx.Err() != nil {
			break
		}
		res, st, err := r.run(r.ctx, qr, r.queries[i], i, r.slab[i*k:i*k:(i+1)*k])
		if err != nil {
			r.fail(err)
			break
		}
		if i < len(r.set.statsInto) {
			r.set.statsInto[i] = st
		}
		r.results[i] = res
		local.Merge(st)
	}
	r.e.scratch().queriers.give(qr)
	r.mu.Lock()
	r.agg.Merge(local)
	r.mu.Unlock()
}

// engineBatchSearch implements Engine.BatchSearch over an engineCore: a
// worker pool over one batchRun.
func engineBatchSearch(ctx context.Context, e engineCore, queries [][]float32, opts []SearchOption) ([]Result, Stats, error) {
	r := e.scratch().runs.take()
	if r == nil {
		r = new(batchRun)
	}
	// Whatever the run still references — the caller's batch, its results,
	// its stats destination — is dropped before the run is shelved.
	defer func() {
		*r = batchRun{}
		e.scratch().runs.give(r)
	}()
	if err := resolveInto(&r.set, opts, len(queries)); err != nil {
		return nil, Stats{}, err
	}
	results := make([]Result, len(queries))
	if len(queries) == 0 {
		return results, Stats{}, ctx.Err()
	}
	workers := r.set.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	// One neighbor slab backs every result in the batch: queries write into
	// disjoint k-sized segments, so the workers' steady state runs at zero
	// allocations per query (the searchers reuse their own scratch).
	r.ctx, r.e, r.queries, r.results = ctx, e, queries, results
	r.slab = make([]ann.Neighbor, len(queries)*r.set.K)

	// With telemetry enabled, each worker times its queries individually —
	// per-query engine latency, not batch wall time — and stamps the
	// coalescer queue wait (carried on the batch context by the serving
	// layer) onto sampled traces. The autotune controller reads the same
	// waits so a coalesced query's latency budget starts at admission, not
	// at batch dispatch.
	r.col, r.tn = e.collector(), e.tuner()
	if r.col != nil || r.tn != nil {
		r.waits = telemetry.QueueWaits(ctx)
	}
	r.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go r.work()
	}
	r.wg.Wait()
	err := r.firstErr
	if err == nil {
		err = ctx.Err()
	}
	return results, r.agg, err
}

// InMemoryIndex is classic in-memory E2LSH: the algorithmic reference
// StorageIndex is measured against.
type InMemoryIndex struct {
	telem
	tune
	searchers
	ix *memindex.Index
}

// NewInMemoryIndex builds an in-memory E2LSH index over data.
func NewInMemoryIndex(data [][]float32, cfg Config) (*InMemoryIndex, error) {
	p, seed, _, err := cfg.derive(data)
	if err != nil {
		return nil, err
	}
	ix, err := memindex.Build(data, p, memindex.Options{ShareProjections: true, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &InMemoryIndex{ix: ix}, nil
}

// Search answers a top-k c²-ANNS query. It honors WithK, WithBudget and
// WithMultiProbe.
func (m *InMemoryIndex) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	return engineSearch(ctx, m, q, opts)
}

// BatchSearch answers queries on a worker pool; see Engine.
func (m *InMemoryIndex) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	return engineBatchSearch(ctx, m, queries, opts)
}

// IndexBytes reports the DRAM footprint of the hash index.
func (m *InMemoryIndex) IndexBytes() int64 { return m.ix.IndexBytes() }

func (m *InMemoryIndex) newQuerier() querier { return m.ix.NewSearcher() }
