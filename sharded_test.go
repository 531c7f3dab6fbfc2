package e2lshos

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/faultinject"
	"e2lshos/internal/vecmath"
)

// TestShardedSingleShardTransparent: with one shard and range placement,
// the router is a pass-through — the sharded index must return exactly what
// the underlying engine returns for the same build.
func TestShardedSingleShardTransparent(t *testing.T) {
	ctx := context.Background()
	d := parityDataset(t)
	cfg := Config{Sigma: 64}
	direct, err := NewInMemoryIndex(d.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedIndex(d.Vectors, 1, PlaceRange, InMemoryShardBuilder(cfg))
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	for qi, q := range d.Queries {
		want, wantStats, err := direct.Search(ctx, q, WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := sharded.Search(ctx, q, WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Neighbors) != len(want.Neighbors) {
			t.Fatalf("query %d: sharded %d neighbors, direct %d", qi, len(got.Neighbors), len(want.Neighbors))
		}
		for i := range want.Neighbors {
			if got.Neighbors[i] != want.Neighbors[i] {
				t.Fatalf("query %d neighbor %d: sharded %+v, direct %+v",
					qi, i, got.Neighbors[i], want.Neighbors[i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("query %d: sharded stats %+v, direct %+v", qi, gotStats, wantStats)
		}
	}
}

// TestShardedGlobalIDs: every neighbor a sharded search returns must carry a
// global ID — its reported distance must be the true distance from the query
// to Vectors[ID] in the original, unsharded dataset. A local ID leaking
// through the merge would point at the wrong vector and fail this.
func TestShardedGlobalIDs(t *testing.T) {
	ctx := context.Background()
	d := parityDataset(t)
	for _, place := range []ShardPlacement{PlaceRange, PlaceHash} {
		sharded, err := NewShardedIndex(d.Vectors, 4, place, InMemoryShardBuilder(Config{Sigma: 64}))
		if err != nil {
			t.Fatal(err)
		}
		results, _, err := sharded.BatchSearch(ctx, d.Queries, WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		for qi, res := range results {
			if len(res.Neighbors) == 0 {
				t.Errorf("%v: query %d found nothing", place, qi)
				continue
			}
			for _, nb := range res.Neighbors {
				if int(nb.ID) >= len(d.Vectors) {
					t.Fatalf("%v: query %d returned ID %d outside the dataset", place, qi, nb.ID)
				}
				true1 := math.Sqrt(vecmath.SqDist(d.Vectors[nb.ID], d.Queries[qi]))
				if math.Abs(true1-nb.Dist) > 1e-4*(1+true1) {
					t.Fatalf("%v: query %d neighbor ID %d reports dist %v but Vectors[%d] is %v away — ID is not global",
						place, qi, nb.ID, nb.Dist, nb.ID, true1)
				}
			}
		}
	}
}

// TestShardedAgreesWithUnsharded: on the same dataset and seed, the sharded
// engine's answers must agree with the unsharded engine's — both recovering
// the exact nearest neighbors at a generous budget — so sharding changes the
// deployment, not the answers.
func TestShardedAgreesWithUnsharded(t *testing.T) {
	ctx := context.Background()
	d := parityDataset(t)
	const k = 5
	gt := GroundTruth(d, k)
	cfg := Config{Sigma: 128}
	flat, err := NewInMemoryIndex(d.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ShardConfig keeps each shard's table count and radius ladder at the
	// unsharded level, so the 4-way scatter-gather is at least as strong as
	// the flat index.
	sharded, err := NewShardedIndex(d.Vectors, 4, PlaceHash,
		InMemoryShardBuilder(ShardConfig(cfg, d.Vectors, 4)))
	if err != nil {
		t.Fatal(err)
	}
	flatRes, _, err := flat.BatchSearch(ctx, d.Queries, WithK(k))
	if err != nil {
		t.Fatal(err)
	}
	shardRes, _, err := sharded.BatchSearch(ctx, d.Queries, WithK(k))
	if err != nil {
		t.Fatal(err)
	}
	flatRecall := MeanRecall(flatRes, gt, k)
	shardRecall := MeanRecall(shardRes, gt, k)
	t.Logf("recall: unsharded %.3f, sharded %.3f", flatRecall, shardRecall)
	// Scattering to every shard searches at least as many candidate
	// buckets, so sharding must not cost accuracy.
	if shardRecall < flatRecall-0.05 {
		t.Errorf("sharded recall %.3f fell below unsharded %.3f", shardRecall, flatRecall)
	}
	if ratio := MeanRatio(shardRes, gt, k); ratio > 1.05 {
		t.Errorf("sharded overall ratio %.4f, want near-exact at this budget", ratio)
	}
}

// TestShardedStatsFold: a sharded batch reports Queries as logical queries
// (not queries × shards) while the work counters sum across shards — the
// storage shards' N_IO must surface through the fold.
func TestShardedStatsFold(t *testing.T) {
	ctx := context.Background()
	d := parityDataset(t)
	sharded, err := NewShardedIndex(d.Vectors, 3, PlaceRange, StorageShardBuilder(Config{Sigma: 16}))
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := sharded.BatchSearch(ctx, d.Queries, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries != d.NQ() {
		t.Errorf("stats.Queries = %d, want %d logical queries", stats.Queries, d.NQ())
	}
	if stats.IOs() == 0 {
		t.Error("storage shards reported zero N_IO through the fold")
	}
	if stats.Checked == 0 {
		t.Error("no candidates checked across shards")
	}

	single, sstats, err := sharded.Search(ctx, d.Queries[0], WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if sstats.Queries != 1 {
		t.Errorf("single Search stats.Queries = %d, want 1", sstats.Queries)
	}
	if len(single.Neighbors) == 0 {
		t.Error("single Search found nothing")
	}
}

// TestShardedBuildErrors: bad shapes fail at construction, not at query
// time.
// TestShardedPartialCountsLogicalQueries: one query that skips a chain on
// both shards is one partial query in the batch aggregate (what the server
// merges into /stats partial_queries), not two.
func TestShardedPartialCountsLogicalQueries(t *testing.T) {
	d := chaosDataset(t)
	var fbs []*faultinject.Backend
	ix, err := NewShardedIndex(d.Vectors, 2, PlaceRange, func(_ int, vectors [][]float32) (Engine, error) {
		// Each shard's device fails its first read and then recovers.
		fb := faultinject.Wrap(blockstore.NewMemBackend(), faultinject.Schedule{FailFirst: 1})
		fb.Disarm() // the build must land intact
		fbs = append(fbs, fb)
		return NewStorageIndex(vectors, Config{Sigma: 8}, WithStorageBackend(fb))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fb := range fbs {
		fb.Arm()
	}
	// One worker per shard answers the batch in order, so the failed first
	// read belongs to query 0 on both shards.
	per := make([]Stats, 4)
	_, agg, err := ix.BatchSearch(context.Background(), d.Queries[:4], WithK(3), WithWorkers(1), WithStatsInto(per))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Queries != 4 || agg.SkippedChains != 2 {
		t.Fatalf("aggregate Queries %d, SkippedChains %d; want 4 queries, one skipped chain per shard", agg.Queries, agg.SkippedChains)
	}
	if agg.Partial != 1 {
		t.Errorf("aggregate Partial = %d, want 1: query 0 went partial on both shards and is one query", agg.Partial)
	}
	for qi, st := range per {
		want := 0
		if qi == 0 {
			want = 1
		}
		if st.Partial != want {
			t.Errorf("query %d row Partial = %d, want %d", qi, st.Partial, want)
		}
	}
}

func TestShardedBuildErrors(t *testing.T) {
	d := parityDataset(t)
	if _, err := NewShardedIndex(d.Vectors, 0, PlaceRange, InMemoryShardBuilder(Config{})); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := NewShardedIndex(d.Vectors, 2, PlaceRange, nil); err == nil {
		t.Error("nil builder accepted")
	}
	if _, err := NewShardedIndex(d.Vectors[:1], 2, PlaceRange, InMemoryShardBuilder(Config{})); err == nil {
		t.Error("more shards than vectors accepted")
	}
}

// TestShardedLatencyBudgetReachesShardsAt90: a latency budget arrives at every
// shard as 90% of what was asked — the call-level one of a library caller,
// and each request's own in a coalesced serving batch, beside the query it
// belongs to — and the stats rows still fold per query.
func TestShardedLatencyBudgetReachesShardsAt90(t *testing.T) {
	const shards = 3
	data := make([][]float32, 10*shards) // captureEngine answers local IDs 7 and 9
	for i := range data {
		data[i] = []float32{float32(i), 0}
	}
	var caps []*captureEngine
	ix, err := NewShardedIndex(data, shards, PlaceRange, func(int, [][]float32) (Engine, error) {
		c := &captureEngine{st: Stats{Queries: 1, Probes: 2}}
		caps = append(caps, c)
		return c, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	queries := [][]float32{{1, 2}, {3, 4}}
	if _, _, err := ix.BatchSearch(context.Background(), queries, WithTuning(SearchTuning{LatencyBudget: 10 * time.Millisecond})); err != nil {
		t.Fatal(err)
	}
	for i, c := range caps {
		if got := c.last(t).Tuning.LatencyBudget; got != 9*time.Millisecond {
			t.Errorf("shard %d ran a 10ms call under %v, want 9ms", i, got)
		}
	}

	srv, err := NewServer(ix, ServerConfig{Dim: 2, K: 2, Opts: []SearchOption{WithTuning(SearchTuning{LatencyBudget: 20 * time.Millisecond})}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		ms   float64
		want time.Duration
	}{{10, 9 * time.Millisecond}, {0, 18 * time.Millisecond}} {
		rec := postJSON(t, srv.Handler(), "/v1/search", searchRequestV1{Query: []float32{1, 2}, LatencyBudgetMS: tc.ms})
		if rec.Code != 200 {
			t.Fatalf("/v1/search returned %d: %s", rec.Code, rec.Body)
		}
		for i, c := range caps {
			set := c.last(t)
			if len(set.each) != 1 || set.each[0].Tuning.LatencyBudget != tc.want {
				t.Errorf("latency_budget_ms %g: shard %d got per-query knobs %+v, want one with budget %v", tc.ms, i, set.each, tc.want)
			}
		}
		var resp searchResponseV1
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Stats.Probes != 2*shards {
			t.Errorf("the request's stats row folded %d probes, want %d from %d shards", resp.Stats.Probes, 2*shards, shards)
		}
	}
}
