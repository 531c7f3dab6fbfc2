package e2lshos

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"e2lshos/internal/blockstore"
)

// shardsDataset is clustered enough that the ladder climbs a few radii and
// the budget truncates rounds, so partitions finish at different depths.
func shardsDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := GenerateDataset(DatasetSpec{
		Name: "shards", N: 6000, Queries: 30, Dim: 32,
		Clusters: 12, Spread: 0.08, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestShardsMatchRouter: a StorageIndex under WithShards(s) answers every
// query bit for bit as the shard router does over s hash-placed storage
// shards built with ShardConfig — across k, multi-probe and budget — while
// the router's shards derive the unsharded index's L, M, S and radii, and at
// four partitions the one table walk reads at most a third of the router's
// blocks.
func TestShardsMatchRouter(t *testing.T) {
	ctx := context.Background()
	d := shardsDataset(t)
	// A tight budget, so rounds end with some partitions spent and others
	// still verifying: the case where skipping a candidate must not mark it
	// seen.
	cfg := Config{Sigma: 2}
	for _, s := range []int{1, 2, 4} {
		ix, err := NewStorageIndex(d.Vectors, cfg, WithShards(s))
		if err != nil {
			t.Fatal(err)
		}
		router, err := NewShardedIndex(d.Vectors, s, PlaceHash,
			StorageShardBuilder(ShardConfig(cfg, d.Vectors, s)))
		if err != nil {
			t.Fatal(err)
		}
		p := ix.ix.Params()
		for i := 0; i < s; i++ {
			sp := router.Shard(i).(*StorageIndex).ix.Params()
			if sp.L != p.L || sp.M != p.M || sp.S != p.S || fmt.Sprint(sp.Radii) != fmt.Sprint(p.Radii) {
				t.Fatalf("s=%d shard %d: L=%d M=%d S=%d radii %v; unsharded L=%d M=%d S=%d radii %v",
					s, i, sp.L, sp.M, sp.S, sp.Radii, p.L, p.M, p.S, p.Radii)
			}
		}
		for _, k := range []int{1, 10} {
			for _, mp := range []int{0, 2} {
				for _, budget := range []int{0, p.S / 2} {
					name := fmt.Sprintf("s=%d/k=%d/mp=%d/budget=%d", s, k, mp, budget)
					opts := []SearchOption{WithK(k), WithMultiProbe(mp), WithBudget(budget)}
					got, gst, err := ix.BatchSearch(ctx, d.Queries, opts...)
					if err != nil {
						t.Fatal(err)
					}
					want, wst, err := router.BatchSearch(ctx, d.Queries, opts...)
					if err != nil {
						t.Fatal(err)
					}
					for qi := range want {
						if fmt.Sprint(got[qi].Neighbors) != fmt.Sprint(want[qi].Neighbors) {
							t.Fatalf("%s query %d:\n partitions %v\n router     %v",
								name, qi, got[qi].Neighbors, want[qi].Neighbors)
						}
					}
					if gst.Checked != wst.Checked || gst.Duplicates != wst.Duplicates {
						t.Errorf("%s: %d checks, %d duplicates; router %d, %d",
							name, gst.Checked, gst.Duplicates, wst.Checked, wst.Duplicates)
					}
					t.Logf("%s: %.1f blocks/query, router %.1f", name, gst.MeanIOs(), wst.MeanIOs())
					if s == 4 && 3*gst.IOs() > wst.IOs() {
						t.Errorf("%s: %d blocks read, router %d: want at most a third", name, gst.IOs(), wst.IOs())
					}
				}
			}
		}
		// A lone Search takes the same path as a batch of one.
		for qi, q := range d.Queries[:5] {
			got, _, err := ix.Search(ctx, q, WithK(10))
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := router.Search(ctx, q, WithK(10))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Neighbors) != fmt.Sprint(want.Neighbors) {
				t.Fatalf("s=%d Search query %d: partitions %v, router %v", s, qi, got.Neighbors, want.Neighbors)
			}
		}
	}
}

// TestSimulateMatchesBatchSearch: the virtual-time engine runs the serving
// ladder over the index's hash partitions, so Simulate answers bit for bit
// as BatchSearch does and, against an index with an I/O engine, which reads
// a round whole as the simulator does, its N_IO is the mean of the queries'
// Stats.IOs().
func TestSimulateMatchesBatchSearch(t *testing.T) {
	ctx := context.Background()
	d := shardsDataset(t)
	for _, s := range []int{1, 4} {
		// The simulator issues a round whole, as the index does with an I/O
		// engine at any queue depth over a backend that blocks; in line it
		// would walk each bucket and stop at the budget.
		ix := blockingStorageIndex(t, d, Config{Sigma: 2}, WithShards(s), WithIOEngine(4))
		for _, k := range []int{1, 10} {
			name := fmt.Sprintf("s=%d/k=%d", s, k)
			sts := make([]Stats, len(d.Queries))
			want, _, err := ix.BatchSearch(ctx, d.Queries, WithK(k), WithStatsInto(sts))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ix.Simulate(d.Queries, SimulationConfig{
				Device: ConsumerSSD, Iface: IOUring, Threads: 2, K: k, QueueDepth: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			var ios int
			for qi := range want {
				if fmt.Sprint(rep.Results[qi].Neighbors) != fmt.Sprint(want[qi].Neighbors) {
					t.Fatalf("%s query %d:\n simulated %v\n batch     %v", name, qi, rep.Results[qi].Neighbors, want[qi].Neighbors)
				}
				ios += sts[qi].IOs()
			}
			if mean := float64(ios) / float64(len(want)); rep.MeanIOsPerQuery != mean {
				t.Errorf("%s: simulated N_IO %v, searched %v", name, rep.MeanIOsPerQuery, mean)
			}
		}
	}
}

// TestShardsInsertFindsItself: a vector inserted into a partitioned index
// lands in its own partition and comes back as its own nearest neighbor.
func TestShardsInsertFindsItself(t *testing.T) {
	ctx := context.Background()
	d := shardsDataset(t)
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 8}, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range d.Queries[:8] {
		id, err := ix.Insert(q)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := ix.Search(ctx, q, WithK(3))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) == 0 || res.Neighbors[0].ID != id || res.Neighbors[0].Dist != 0 {
			t.Fatalf("insert %d (id %d): top neighbors %v", i, id, res.Neighbors)
		}
	}
}

// TestShardsOptionChecks: WithShards refuses what it cannot serve — a
// negative count, a partition left without objects — and composes with the
// I/O engine's options, the write-ahead log and a caller's backend under all
// three constructors: each answers as the plainly built partitioned index.
func TestShardsOptionChecks(t *testing.T) {
	d := shardsDataset(t)
	cfg := Config{Sigma: 8}
	if _, err := NewStorageIndex(d.Vectors, cfg, WithShards(-1)); err == nil {
		t.Error("WithShards(-1) accepted")
	}
	if _, err := NewStorageIndex(d.Vectors[:3], cfg, WithShards(4)); err == nil {
		t.Error("4 partitions over 3 objects accepted")
	}

	ctx := context.Background()
	plain, err := NewStorageIndex(d.Vectors, cfg, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plain.BatchSearch(ctx, d.Queries, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.e2ix")
	if err := plain.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	builtDir, openedDir := t.TempDir(), t.TempDir()
	opens := []struct {
		name string
		open func() (*StorageIndex, error)
	}{
		{"engine options", func() (*StorageIndex, error) {
			return NewStorageIndex(d.Vectors, cfg, WithShards(3),
				WithBlockCache(1<<20), WithReadahead(2), WithIOEngine(4), WithRetries(2))
		}},
		{"built with a WAL", func() (*StorageIndex, error) {
			return NewStorageIndex(d.Vectors, cfg, WithShards(3), WithWAL(builtDir))
		}},
		{"recovered", func() (*StorageIndex, error) {
			return OpenWALIndex(builtDir, d.Vectors, WithShards(3), WithIOEngine(4))
		}},
		{"opened", func() (*StorageIndex, error) {
			return OpenStorageIndex(path, d.Vectors, WithShards(3), WithIOEngine(8))
		}},
		{"opened onto a backend with a WAL", func() (*StorageIndex, error) {
			return OpenStorageIndex(path, d.Vectors, WithShards(3),
				WithStorageBackend(blockstore.NewMemBackend()), WithWAL(openedDir))
		}},
		{"recovered onto a backend", func() (*StorageIndex, error) {
			return OpenWALIndex(openedDir, d.Vectors, WithShards(3),
				WithStorageBackend(blockstore.NewMemBackend()), WithBlockCache(1<<20))
		}},
	}
	for _, o := range opens {
		eng, err := o.open()
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		got, _, err := eng.BatchSearch(ctx, d.Queries, WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		for qi := range want {
			if fmt.Sprint(got[qi].Neighbors) != fmt.Sprint(want[qi].Neighbors) {
				t.Fatalf("%s query %d: %v, want %v", o.name, qi, got[qi].Neighbors, want[qi].Neighbors)
			}
		}
	}
}

// TestShardsAutotunePerPartition: under EnableAutotune every partition gets
// its own controller from the index's one tuner — each trains the model with
// its own full ladder — and controllers that ask for nothing leave the
// answers exactly as without autotuning. A recall-targeted query runs too.
func TestShardsAutotunePerPartition(t *testing.T) {
	ctx := context.Background()
	d := shardsDataset(t)
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 8}, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ix.BatchSearch(ctx, d.Queries, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	ix.EnableAutotune()
	got, _, err := ix.BatchSearch(ctx, d.Queries, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	for qi := range want {
		if fmt.Sprint(got[qi].Neighbors) != fmt.Sprint(want[qi].Neighbors) {
			t.Fatalf("query %d under untuned controllers: %v, want %v", qi, got[qi].Neighbors, want[qi].Neighbors)
		}
	}
	if sp := ix.autotuneSnapshot(); sp == nil || sp.Ladders != 4*len(d.Queries) {
		t.Errorf("model trained on %+v ladders, want one per partition per query (%d)", sp, 4*len(d.Queries))
	}
	res, _, err := ix.Search(ctx, d.Queries[0], WithK(5),
		WithTuning(SearchTuning{RecallTarget: 0.9, LatencyBudget: time.Second}))
	if err != nil || len(res.Neighbors) == 0 {
		t.Fatalf("recall-targeted query: %v, %v", res.Neighbors, err)
	}
}
