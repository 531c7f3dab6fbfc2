// Package shard partitions one dataset across N sub-engines and routes
// queries to them: placement assigns every database object to exactly one
// shard, the Router scatter-gathers a query (or batch) over all shards with
// per-shard contexts, and the merge step folds the per-shard top-k heaps
// into one globally-correct Result.
//
// The router is generic over the stats type S and takes the per-shard query
// as a closure, so it never needs to import the facade package that defines
// Engine, Stats and the search options — the facade binds those and hands
// the router only what it routes.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/coalesce"
)

// Placement selects how objects are assigned to shards.
type Placement int

const (
	// Range gives shard i the i-th contiguous slice of the dataset:
	// locality-preserving, the natural choice when the dataset arrives
	// pre-clustered or pre-sorted.
	Range Placement = iota
	// Hash assigns object g to shard mix64(g) mod N: load-balancing by
	// construction, the usual serving-system default.
	Hash
)

// String names the placement for logs and reports.
func (p Placement) String() string {
	switch p {
	case Range:
		return "range"
	case Hash:
		return "hash"
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

// Partition assigns n objects to shards and returns, per shard, the global
// IDs it owns in local-ID order: Partition(n, s, p)[i][l] is the global ID
// of shard i's local object l. Every global ID appears exactly once, and
// every shard owns at least one object.
func Partition(n, shards int, p Placement) ([][]uint32, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", shards)
	}
	if n < shards {
		return nil, fmt.Errorf("shard: cannot place %d objects on %d shards", n, shards)
	}
	globals := make([][]uint32, shards)
	switch p {
	case Range:
		// Contiguous blocks, the remainder spread over the first shards.
		per, rem := n/shards, n%shards
		g := 0
		for i := range globals {
			size := per
			if i < rem {
				size++
			}
			part := make([]uint32, size)
			for l := range part {
				part[l] = uint32(g)
				g++
			}
			globals[i] = part
		}
	case Hash:
		for g := 0; g < n; g++ {
			i := Of(uint32(g), shards)
			globals[i] = append(globals[i], uint32(g))
		}
		for i, part := range globals {
			if len(part) == 0 {
				return nil, fmt.Errorf("shard: hash placement left shard %d/%d empty (n=%d); use fewer shards", i, shards, n)
			}
		}
	default:
		return nil, fmt.Errorf("shard: unknown placement %d", int(p))
	}
	return globals, nil
}

// Of is the hash placement of object g over shards: mix64(g) mod shards. A
// hash-partitioned index (one index whose ladder runs per partition) routes
// candidates with the same function, so its partition p holds exactly the
// objects Hash placement gives shard p.
func Of(g uint32, shards int) int { return int(mix64(uint64(g)) % uint64(shards)) }

// mix64 is the splitmix64 finalizer: a cheap, well-distributed integer hash
// so sequential global IDs land on uncorrelated shards.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SearchFunc answers one query on one shard, returning local IDs.
type SearchFunc[S any] func(ctx context.Context, shard int, q []float32) (ann.Result, S, error)

// BatchFunc answers a query batch on one shard, returning local IDs.
type BatchFunc[S any] func(ctx context.Context, shard int, queries [][]float32) ([]ann.Result, S, error)

// Router scatter-gathers queries across the shards of one partitioned
// dataset and merges their answers into globally-addressed results. It holds
// only the placement (the local→global ID tables); the per-shard search
// itself is passed per call, already bound to its engine and options.
type Router[S any] struct {
	globals [][]uint32

	// observe, when set, receives every shard's answer latency per scatter
	// call (one query or one batch): the time from scatter to that shard's
	// closure returning, which includes goroutine scheduling — the quantity
	// a load balancer or straggler detector actually experiences.
	observe func(shard int, d time.Duration)
}

// SetObserver installs (or, with nil, removes) the per-shard latency hook.
// Not safe to call concurrently with Search/BatchSearch; install it at
// setup time, as the facade's telemetry enablement does.
func (r *Router[S]) SetObserver(fn func(shard int, d time.Duration)) { r.observe = fn }

// NewRouter builds a router over a Partition result.
func NewRouter[S any](globals [][]uint32) (*Router[S], error) {
	if len(globals) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	for i, part := range globals {
		if len(part) == 0 {
			return nil, fmt.Errorf("shard: shard %d owns no objects", i)
		}
	}
	return &Router[S]{globals: globals}, nil
}

// Shards returns the number of shards routed over.
func (r *Router[S]) Shards() int { return len(r.globals) }

// shardOut is one shard's gathered answer; its stats go straight into the
// positional slice the scatter returns.
type shardOut struct {
	results []ann.Result
	err     error
}

// Search scatters one query to every shard concurrently and merges the
// per-shard top-k answers into one global top-k. Each shard runs under a
// context derived from ctx that is canceled as soon as any shard fails, so
// an error (or the caller's own cancellation) stops the whole fan-out. The
// per-shard stats come back positionally — the caller folds them with
// whatever semantics its stats type wants. Partial answers gathered before
// an error are merged and returned alongside it.
func (r *Router[S]) Search(ctx context.Context, q []float32, k int, search SearchFunc[S]) (ann.Result, []S, error) {
	outs, stats := r.scatter(ctx, func(sctx context.Context, i int) ([]ann.Result, S, error) {
		res, st, err := search(sctx, i, q)
		return []ann.Result{res}, st, err
	})
	merged, err := gather(r.globals, outs, 1, k)
	return merged[0], stats, err
}

// BatchSearch scatters the whole batch to every shard's batch entry point —
// so each shard's worker pool and per-goroutine searcher reuse stay in play
// — and merges per query. Results are positionally aligned with queries;
// slots no shard answered are zero Results.
func (r *Router[S]) BatchSearch(ctx context.Context, queries [][]float32, k int, batch BatchFunc[S]) ([]ann.Result, []S, error) {
	if len(queries) == 0 {
		outs := make([]S, len(r.globals))
		return nil, outs, ctx.Err()
	}
	outs, stats := r.scatter(ctx, func(sctx context.Context, i int) ([]ann.Result, S, error) {
		return batch(sctx, i, queries)
	})
	merged, err := gather(r.globals, outs, len(queries), k)
	return merged, stats, err
}

// scatter runs fn once per shard on its own goroutine under a shared
// cancelable context and waits for all of them; the shards' stats come back
// positionally beside their answers.
func (r *Router[S]) scatter(ctx context.Context, fn func(ctx context.Context, shard int) ([]ann.Result, S, error)) ([]shardOut, []S) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	outs := make([]shardOut, len(r.globals))
	stats := make([]S, len(r.globals))
	var start time.Time
	if r.observe != nil {
		start = time.Now()
	}
	var wg sync.WaitGroup
	for i := range r.globals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A panicking shard fails the scatter, not the process.
			defer func() {
				if p := recover(); p != nil {
					outs[i].err = fmt.Errorf("shard %d: %w: %v", i, coalesce.ErrPanic, p)
					cancel()
				}
			}()
			outs[i].results, stats[i], outs[i].err = fn(sctx, i)
			if r.observe != nil {
				r.observe(i, time.Since(start))
			}
			if outs[i].err != nil {
				cancel() // fail fast: stop the sibling shards
			}
		}(i)
	}
	wg.Wait()
	return outs, stats
}

// gather merges nq per-query answers across shards in shard order (so the
// merge is deterministic regardless of completion order) and picks the error
// to surface: the first real failure if there is one, else the first
// cancellation — a shard canceled because a sibling failed must not mask the
// sibling's error.
func gather(globals [][]uint32, outs []shardOut, nq, k int) ([]ann.Result, error) {
	var firstErr, firstCancel error
	for _, o := range outs {
		if o.err == nil {
			continue
		}
		if errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded) {
			if firstCancel == nil {
				firstCancel = o.err
			}
		} else if firstErr == nil {
			firstErr = o.err
		}
	}
	if firstErr == nil {
		firstErr = firstCancel
	}
	merged := make([]ann.Result, nq)
	top := ann.NewTopK(k)
	for qi := 0; qi < nq; qi++ {
		top.Reset(k)
		for i, o := range outs {
			if qi >= len(o.results) {
				continue
			}
			for _, nb := range o.results[qi].Neighbors {
				top.Push(globals[i][nb.ID], nb.Dist)
			}
		}
		if top.Len() > 0 {
			merged[qi] = top.Result()
		}
	}
	return merged, firstErr
}

// MergeTopK folds per-shard result lists into global top-k results without a
// Router: perShard[i] are shard i's answers (local IDs, positionally aligned
// across shards) and globals[i] its local→global table. The virtual-time
// experiments use this to merge scatter runs they schedule themselves.
func MergeTopK(k int, globals [][]uint32, perShard [][]ann.Result) []ann.Result {
	outs := make([]shardOut, len(perShard))
	nq := 0
	for i, results := range perShard {
		outs[i] = shardOut{results: results}
		if len(results) > nq {
			nq = len(results)
		}
	}
	merged, _ := gather(globals, outs, nq, k)
	return merged
}
