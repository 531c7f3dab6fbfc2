package e2lshos

import (
	"context"
	"fmt"
	"math"
	"time"

	"e2lshos/internal/autotune"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
	"e2lshos/internal/shard"
	"e2lshos/internal/telemetry"
)

// ShardPlacement selects how NewShardedIndex distributes vectors over
// shards.
type ShardPlacement = shard.Placement

const (
	// PlaceRange gives each shard a contiguous slice of the dataset.
	PlaceRange = shard.Range
	// PlaceHash spreads vectors over shards by hashing their global IDs.
	PlaceHash = shard.Hash
)

// ShardBuilder builds one shard's engine over its partition of the dataset.
// It is called once per shard with the shard number and the vectors placed
// there (local ID order), so heterogeneous layouts — say, a hot InMemoryIndex
// shard in front of cold StorageIndex shards — are one switch away.
type ShardBuilder func(shardNum int, vectors [][]float32) (Engine, error)

// InMemoryShardBuilder builds every shard as an InMemoryIndex with cfg.
func InMemoryShardBuilder(cfg Config) ShardBuilder {
	return func(_ int, vectors [][]float32) (Engine, error) {
		return NewInMemoryIndex(vectors, cfg)
	}
}

// StorageShardBuilder builds every shard as a StorageIndex with cfg.
// Storage options apply per shard — WithBlockCache(bytes) gives each shard
// its own cache of that size, so a router over s shards holds s·bytes of
// cache in total. Per-shard Stats (cache counters included) fold through
// ShardedIndex like every other work counter.
func StorageShardBuilder(cfg Config, opts ...StorageOption) ShardBuilder {
	return func(_ int, vectors [][]float32) (Engine, error) {
		return NewStorageIndex(vectors, cfg, opts...)
	}
}

// ShardConfig adapts cfg for the shards of an s-way split of data, so the
// sharded build answers like the unsharded one. Three per-shard derivations
// drift when a shard sees only n/s points, and ShardConfig pins them back
// to their global values:
//
//   - L = n^ρ hash tables: a shard built with the same ρ gets fewer tables
//     and lower per-shard recall, so ρ is rescaled to keep each shard at the
//     unsharded table count.
//   - m = γ·log n hash functions per table: fewer functions mean looser
//     tables, which end the radius ladder earlier on coarser candidates, so
//     γ is rescaled the same way.
//   - The radius ladder itself: R_min estimated inside one shard is inflated
//     by the lower point density, giving a coarser ladder, so R_min/R_max
//     are estimated once over the full dataset and fixed in the config
//     (unless the caller already pinned them).
//
// With s same-strength indexes probed per query, scatter-gather accuracy
// then meets or exceeds the unsharded engine's.
func ShardConfig(cfg Config, data [][]float32, shards int) Config {
	n := len(data)
	if n == 0 {
		return cfg
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.RMin == 0 {
		cfg.RMin = estimateRMin(data, seed)
	}
	if cfg.RMax == 0 {
		cfg.RMax = lsh.MaxRadius(maxAbs(data), len(data[0]))
	}
	if shards <= 1 {
		return cfg
	}
	def := lsh.DefaultConfig()
	rho := cfg.Rho
	if rho == 0 {
		rho = def.Rho
	}
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = def.Gamma
	}
	nShard := float64(n) / float64(shards)
	if nShard <= 1 {
		return cfg
	}
	// Both L = n^ρ and m = γ·log n shrink with the shard size; scaling the
	// exponents by log n / log(n/s) restores the unsharded values.
	logScale := math.Log(float64(n)) / math.Log(nShard)
	scaled := rho * logScale
	if scaled > 0.99 {
		scaled = 0.99 // keep L sublinear in the shard size
	}
	cfg.Rho = scaled
	cfg.Gamma = gamma * logScale
	return cfg
}

// ShardedIndex partitions one dataset across N sub-engines and serves it as
// a single Engine: Search and BatchSearch scatter to every shard, gather
// under per-shard contexts, merge the per-shard top-k heaps into one global
// Result (IDs are positions in the original dataset, exactly as with an
// unsharded engine), and fold the per-shard Stats. Options pass through to
// every shard; as everywhere, each engine honors the knobs it has.
type ShardedIndex struct {
	telem
	tune
	router  *shard.Router[Stats]
	engines []Engine
}

// NewShardedIndex places data on shards and builds one engine per shard.
func NewShardedIndex(data [][]float32, shards int, placement ShardPlacement, build ShardBuilder) (*ShardedIndex, error) {
	if build == nil {
		return nil, fmt.Errorf("e2lshos: nil ShardBuilder")
	}
	globals, err := shard.Partition(len(data), shards, placement)
	if err != nil {
		return nil, err
	}
	router, err := shard.NewRouter[Stats](globals)
	if err != nil {
		return nil, err
	}
	engines := make([]Engine, shards)
	for i, part := range globals {
		vectors := make([][]float32, len(part))
		for l, g := range part {
			vectors[l] = data[g]
		}
		eng, err := build(i, vectors)
		if err != nil {
			return nil, fmt.Errorf("e2lshos: building shard %d/%d: %w", i, shards, err)
		}
		engines[i] = eng
	}
	return &ShardedIndex{router: router, engines: engines}, nil
}

// EnableTelemetry turns on telemetry for the whole sharded tree: the router
// gets its own collector (end-to-end latency, slow-query counting, and a
// shard_wait histogram fed by per-shard scatter latencies), and the options
// propagate to every shard engine so each records its own stage detail.
// TelemetryReport and /metrics then serve the folded view. Install before
// serving queries — the router observer is not swapped concurrently with
// searches.
func (x *ShardedIndex) EnableTelemetry(opts ...TelemetryOption) error {
	if err := x.telem.EnableTelemetry(opts...); err != nil {
		return err
	}
	col := x.collector()
	x.router.SetObserver(func(_ int, d time.Duration) {
		col.ObserveStage(telemetry.StageShardWait, d)
	})
	for i, eng := range x.engines {
		t, ok := eng.(interface {
			EnableTelemetry(...TelemetryOption) error
		})
		if !ok {
			continue
		}
		if err := t.EnableTelemetry(opts...); err != nil {
			return fmt.Errorf("e2lshos: enabling telemetry on shard %d: %w", i, err)
		}
	}
	return nil
}

// EnableAutotune turns on the per-query recall/latency controller for the
// whole sharded tree: every shard engine learns its own recall-vs-radius
// model (shard geometries differ), and the router keeps its own anchor so
// the serving layer can see autotuning is on.
func (x *ShardedIndex) EnableAutotune() {
	x.tune.EnableAutotune()
	for _, eng := range x.engines {
		if t, ok := eng.(interface{ EnableAutotune() }); ok {
			t.EnableAutotune()
		}
	}
}

// observeServedRecall fans the guardrail observation out to every shard's
// tuner (each steered its part of the query).
func (x *ShardedIndex) observeServedRecall(target, recall float64) {
	for _, eng := range x.engines {
		if a, ok := eng.(autotuned); ok {
			a.observeServedRecall(target, recall)
		}
	}
}

// autotuneSnapshot folds the shards' model state: trained-ladder counts sum,
// the guardrail margin is the most conservative shard's.
func (x *ShardedIndex) autotuneSnapshot() *autotune.ModelSnapshot {
	if x.tuner() == nil {
		return nil
	}
	var out autotune.ModelSnapshot
	for _, eng := range x.engines {
		a, ok := eng.(autotuned)
		if !ok {
			continue
		}
		if sp := a.autotuneSnapshot(); sp != nil {
			out.Ladders += sp.Ladders
			if sp.GuardMargin > out.GuardMargin {
				out.GuardMargin = sp.GuardMargin
			}
		}
	}
	return &out
}

// ProbeStorage probes every shard that has probeable storage, so /readyz on
// a sharded server reflects the health of the whole tree; the first failing
// shard is named.
func (x *ShardedIndex) ProbeStorage() error {
	for i, eng := range x.engines {
		p, ok := eng.(interface{ ProbeStorage() error })
		if !ok {
			continue
		}
		if err := p.ProbeStorage(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// IOCounters totals the vectored-engine counters of every shard that has
// them; see StorageIndex.IOCounters.
func (x *ShardedIndex) IOCounters() IOEngineCounters {
	var sum IOEngineCounters
	for _, eng := range x.engines {
		if c, ok := eng.(interface{ IOCounters() IOEngineCounters }); ok {
			sum.Add(c.IOCounters())
		}
	}
	return sum
}

// forShards turns a scatter's resolved settings into what every shard runs
// under, once per call, and returns the caller's per-query stats destination:
// that is not forwarded (every shard would race on it; shards report through
// the router), and every latency budget — the call's and each query's own —
// shrinks to 90%, headroom for the merge work after the slowest shard. The
// caller's each is copied, not scaled in place: it is shared read-only.
func (s *searchSettings) forShards() (statsInto []Stats) {
	statsInto, s.statsInto = s.statsInto, nil
	s.Tuning.LatencyBudget = s.Tuning.LatencyBudget * 9 / 10
	if s.each != nil {
		s.each = append([]ladder.Knobs(nil), s.each...)
		for i := range s.each {
			s.each[i].Tuning.LatencyBudget = s.each[i].Tuning.LatencyBudget * 9 / 10
		}
	}
	return statsInto
}

// telemetrySnapshot folds the shards' telemetry into the router's own
// snapshot: per-stage detail sums across shards (FoldShard semantics — shard
// end-to-end totals are dropped because the router's shard_wait histogram
// already records each shard's contribution to every query).
func (x *ShardedIndex) telemetrySnapshot() *telemetry.Snapshot {
	sp := x.telem.telemetrySnapshot()
	if sp == nil {
		return nil
	}
	for _, eng := range x.engines {
		t, ok := eng.(telemetered)
		if !ok {
			continue
		}
		if ssp := t.telemetrySnapshot(); ssp != nil {
			sp.FoldShard(ssp)
		}
	}
	return sp
}

// TelemetryReport summarizes the folded sharded-tree telemetry; see the
// unsharded TelemetryReport for row semantics.
func (x *ShardedIndex) TelemetryReport() []LatencySummary {
	return summarizeTelemetry(x.telemetrySnapshot())
}

// Shards returns the number of shards.
func (x *ShardedIndex) Shards() int { return x.router.Shards() }

// Shard returns shard i's engine, for engine-specific surface (SaveFile,
// Insert, byte accounting). Searches should go through the ShardedIndex.
func (x *ShardedIndex) Shard(i int) Engine { return x.engines[i] }

// Search scatters the query to every shard and merges their top-k answers;
// see Engine. On cancellation the neighbors gathered so far are merged and
// returned with ctx.Err().
func (x *ShardedIndex) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	set, err := resolveSettings(opts, 1)
	if err != nil {
		return Result{}, Stats{}, err
	}
	col := x.collector()
	statsInto := set.forShards()
	shardOpt := withSettings(&set)
	var t0 time.Time
	if col != nil {
		t0 = time.Now()
	}
	res, per, err := x.router.Search(ctx, q, set.K,
		func(sctx context.Context, i int, q []float32) (Result, Stats, error) {
			return x.engines[i].Search(sctx, q, shardOpt)
		})
	if col != nil {
		col.FinishQuery(time.Since(t0), nil)
	}
	st := foldShardStats(per)
	if len(statsInto) > 0 {
		statsInto[0] = st
	}
	return res, st, err
}

// BatchSearch scatters the whole batch to every shard's BatchSearch — so
// each shard runs its own worker pool with per-goroutine searcher reuse —
// and merges per query; see Engine.
func (x *ShardedIndex) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	set, err := resolveSettings(opts, len(queries))
	if err != nil {
		return nil, Stats{}, err
	}
	col := x.collector()
	statsInto := set.forShards()
	shardOpt := withSettings(&set)
	// With a per-query stats destination, each shard writes its rows into
	// its own stretch of one arena and the per-query rows fold after the
	// gather.
	shards, nq := x.router.Shards(), len(queries)
	var arena []Stats
	if len(statsInto) > 0 {
		arena = make([]Stats, shards*nq)
	}
	var t0 time.Time
	if col != nil {
		t0 = time.Now()
	}
	results, per, err := x.router.BatchSearch(ctx, queries, set.K,
		func(sctx context.Context, i int, queries [][]float32) ([]Result, Stats, error) {
			if arena == nil {
				return x.engines[i].BatchSearch(sctx, queries, shardOpt)
			}
			return x.engines[i].BatchSearch(sctx, queries, shardOpt, WithStatsInto(arena[i*nq:(i+1)*nq]))
		})
	if col != nil {
		// Every query in the batch completes when the batch does, so the
		// batch wall time is each query's end-to-end latency.
		d := time.Since(t0)
		for range queries {
			col.FinishQuery(d, nil)
		}
	}
	if results == nil {
		results = make([]Result, len(queries))
	}
	agg := foldShardStats(per)
	if arena != nil {
		// With rows the partial-query count is exact: a query that skipped
		// chains on several shards is one partial query, which the shards'
		// batch-level counts cannot tell from several queries that each
		// skipped on one.
		agg.Partial = 0
		var rowBuf [8]Stats // the usual shard counts fold without a heap row
		row := rowBuf[:0]
		for qi := 0; qi < nq; qi++ {
			row = row[:0]
			for si := 0; si < shards; si++ {
				row = append(row, arena[si*nq+qi])
			}
			st := foldShardStats(row)
			agg.Partial += st.Partial
			if qi < len(statsInto) {
				statsInto[qi] = st
			}
		}
	}
	return results, agg, err
}

// foldShardStats folds per-shard Stats into the aggregate for the logical
// query stream: work counters (probes, I/Os, candidates) sum across shards
// because every shard really did that work, but Queries must count logical
// queries, not logical queries × shards — so it is the maximum any single
// shard answered, which on a clean run is exactly the batch size.
func foldShardStats(per []Stats) Stats {
	var agg Stats
	logical := 0
	for _, s := range per {
		if s.Queries > logical {
			logical = s.Queries
		}
		agg.Merge(s)
	}
	agg.Queries = logical
	// Partial counts logical queries served degraded, like Queries: a query
	// that skipped chains on several shards is still one partial query. Over
	// one query's shard rows the clamp is exact; over shard batch aggregates
	// it is only an upper bound, which BatchSearch replaces when it has rows.
	if agg.Partial > agg.Queries {
		agg.Partial = agg.Queries
	}
	return agg
}
