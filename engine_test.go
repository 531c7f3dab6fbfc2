package e2lshos

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// parityDataset is shared by the engine-parity tests: clustered enough that
// every engine should retrieve most exact neighbors.
func parityDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := GenerateDataset(DatasetSpec{
		Name: "parity", N: 4000, Queries: 20, Dim: 32,
		Clusters: 8, Spread: 0.05, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// parityEngines builds every engine over the dataset and pairs each with the
// recall floor it must clear and the options that tune it there.
func parityEngines(t *testing.T, d *Dataset) []struct {
	name   string
	engine Engine
	floor  float64
	opts   []SearchOption
} {
	t.Helper()
	mem, err := NewInMemoryIndex(d.Vectors, Config{Sigma: 64})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := NewStorageIndex(d.Vectors, Config{Sigma: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Heterogeneous sharded engine: a hot in-memory shard in front of cold
	// storage shards, exactly the serving layout the router exists for.
	sharded, err := NewShardedIndex(d.Vectors, 3, PlaceHash,
		func(shardNum int, vectors [][]float32) (Engine, error) {
			if shardNum == 0 {
				return NewInMemoryIndex(vectors, Config{Sigma: 64})
			}
			return NewStorageIndex(vectors, Config{Sigma: 64})
		})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		engine Engine
		floor  float64
		opts   []SearchOption
	}{
		{"inmemory", mem, 0.50, nil},
		{"storage", disk, 0.50, nil},
		{"sharded", sharded, 0.50, nil},
	}
}

// TestEngineParity runs the same dataset and queries through every engine
// via the Engine interface alone and asserts each clears its
// brute-force-sanity recall floor. This is the contract the interface
// exists for: heterogeneous engines, one calling convention, comparable
// answers.
func TestEngineParity(t *testing.T) {
	ctx := context.Background()
	d := parityDataset(t)
	const k = 5
	gt := GroundTruth(d, k)

	for _, tc := range parityEngines(t, d) {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]SearchOption{WithK(k)}, tc.opts...)
			results, stats, err := tc.engine.BatchSearch(ctx, d.Queries, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != d.NQ() {
				t.Fatalf("got %d results for %d queries", len(results), d.NQ())
			}
			if stats.Queries != d.NQ() {
				t.Errorf("stats aggregated %d queries, want %d", stats.Queries, d.NQ())
			}
			if stats.Checked == 0 {
				t.Error("engine reported zero candidates checked")
			}
			var recall float64
			for qi, res := range results {
				recall += Recall(res, gt[qi], k)
			}
			recall /= float64(d.NQ())
			t.Logf("recall %.3f (floor %.3f)", recall, tc.floor)
			if recall < tc.floor {
				t.Errorf("recall %.3f below floor %.3f", recall, tc.floor)
			}
		})
	}
}

// TestBatchSearchMatchesSearch pins batch/single equivalence: BatchSearch
// must return exactly what per-query Search returns, regardless of which
// worker answered which query.
func TestBatchSearchMatchesSearch(t *testing.T) {
	ctx := context.Background()
	d := parityDataset(t)
	const k = 3
	for _, tc := range parityEngines(t, d) {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]SearchOption{WithK(k)}, tc.opts...)
			batch, _, err := tc.engine.BatchSearch(ctx, d.Queries, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range d.Queries {
				single, _, err := tc.engine.Search(ctx, q, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if len(single.Neighbors) != len(batch[qi].Neighbors) {
					t.Fatalf("query %d: batch %d neighbors, single %d",
						qi, len(batch[qi].Neighbors), len(single.Neighbors))
				}
				for i := range single.Neighbors {
					if single.Neighbors[i] != batch[qi].Neighbors[i] {
						t.Fatalf("query %d neighbor %d: batch %+v, single %+v",
							qi, i, batch[qi].Neighbors[i], single.Neighbors[i])
					}
				}
			}
		})
	}
}

// TestBatchSearchCancellation proves an in-flight BatchSearch honors
// context cancellation: a canceled context surfaces as the returned error
// and stops the batch before all queries are answered.
func TestBatchSearchCancellation(t *testing.T) {
	d := parityDataset(t)
	ix, err := NewInMemoryIndex(d.Vectors, Config{Sigma: 64})
	if err != nil {
		t.Fatal(err)
	}

	// A context canceled before the call: no query may be answered.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	results, _, err := ix.BatchSearch(pre, d.Queries, WithK(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled batch returned %v, want context.Canceled", err)
	}
	for qi, res := range results {
		if len(res.Neighbors) != 0 {
			t.Fatalf("query %d answered despite pre-canceled context", qi)
		}
	}

	// A context canceled mid-flight: the batch must stop early. One worker
	// over a large replicated batch guarantees the cancel lands while
	// queries remain. (The batch must comfortably outlast the timer even on
	// a fast, idle machine — PR 4's kernels pushed 200 replications under
	// 2ms, which made this flaky.)
	big := make([][]float32, 0, 2000*len(d.Queries))
	for len(big) < cap(big) {
		big = append(big, d.Queries...)
	}
	mid, cancelMid := context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancelMid)
	defer timer.Stop()
	results, _, err = ix.BatchSearch(mid, big, WithK(3), WithWorkers(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel returned %v, want context.Canceled", err)
	}
	answered := 0
	for _, res := range results {
		if len(res.Neighbors) > 0 {
			answered++
		}
	}
	if answered == len(big) {
		t.Fatal("batch ran to completion despite cancellation")
	}
	t.Logf("canceled after %d/%d queries", answered, len(big))
}

// TestSearchCancellation: a pre-canceled context also stops single queries
// across every engine.
func TestSearchCancellation(t *testing.T) {
	d := parityDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range parityEngines(t, d) {
		if _, _, err := tc.engine.Search(ctx, d.Queries[0]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-canceled Search returned %v, want context.Canceled", tc.name, err)
		}
	}
}

// TestMultiProbeOption: extra probes must visit at least as many buckets on
// both E2LSH engines, and results must stay valid. On storage the extra
// probes ride the same fetch waves as the base buckets: behind WithIOEngine
// they go out as vectored reads, the answers are the in-line index's, and
// the in-line walk, which stops at the budget, probes and reads no more.
func TestMultiProbeOption(t *testing.T) {
	ctx := context.Background()
	d := parityDataset(t)
	probedBy := map[string][]Result{}
	statsBy := map[string]Stats{}
	for _, build := range []struct {
		name string
		make func() (Engine, error)
	}{
		{"mem", func() (Engine, error) { return NewInMemoryIndex(d.Vectors, Config{}) }},
		{"disk", func() (Engine, error) { return NewStorageIndex(d.Vectors, Config{}) }},
		{"disk+ioengine", func() (Engine, error) { return NewStorageIndex(d.Vectors, Config{}, WithIOEngine(8)) }},
	} {
		eng, err := build.make()
		if err != nil {
			t.Fatal(err)
		}
		_, base, err := eng.BatchSearch(ctx, d.Queries, WithK(3))
		if err != nil {
			t.Fatal(err)
		}
		res, probed, err := eng.BatchSearch(ctx, d.Queries, WithK(3), WithMultiProbe(2))
		if err != nil {
			t.Fatal(err)
		}
		if probed.Probes <= base.Probes {
			t.Errorf("%s: multi-probe probed %d buckets, base %d; option inert",
				build.name, probed.Probes, base.Probes)
		}
		for qi, r := range res {
			if len(r.Neighbors) == 0 {
				t.Errorf("%s: multi-probe query %d found nothing", build.name, qi)
			}
		}
		probedBy[build.name], statsBy[build.name] = res, probed
	}
	inline, vectored := statsBy["disk"], statsBy["disk+ioengine"]
	if !reflect.DeepEqual(probedBy["disk"], probedBy["disk+ioengine"]) {
		t.Error("multi-probe answers differ between the in-line and the vectored index")
	}
	// In line a round walks its buckets and stops probing at the budget, so
	// it never probes or reads more than the vectored index, whose waves
	// read ahead of verification.
	if inline.IOs() > vectored.IOs() || inline.Probes > vectored.Probes || inline.Checked != vectored.Checked {
		t.Errorf("multi-probe logical work differs: in-line %+v, vectored %+v", inline, vectored)
	}
	if inline.PhysicalReads != 0 || vectored.PhysicalReads == 0 {
		t.Errorf("PhysicalReads: in-line %d (want 0), vectored %d (want > 0)", inline.PhysicalReads, vectored.PhysicalReads)
	}
}
