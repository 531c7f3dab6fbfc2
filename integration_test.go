package e2lshos

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

// TestCrossEngineConsistency drives the same workload through all four
// execution paths of the storage index — simulated asynchronous engine,
// concurrent real-I/O searcher — and the in-memory reference, checking that
// accuracies agree: the execution substrate must never change the answers'
// quality.
func TestCrossEngineConsistency(t *testing.T) {
	ctx := context.Background()
	ds, err := GenerateDataset(DatasetSpec{
		Name: "xengine", N: 3000, Queries: 20, Dim: 24,
		Clusters: 8, Spread: 0.05, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Sigma: 64}
	mem, err := NewInMemoryIndex(ds.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := NewStorageIndex(ds.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gt := GroundTruth(ds, 3)

	opts := []SearchOption{WithK(3)}
	memRes, _, err := mem.BatchSearch(ctx, ds.Queries, opts...)
	if err != nil {
		t.Fatal(err)
	}
	parRes, _, err := disk.BatchSearch(ctx, ds.Queries, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var memRatio, parRatio float64
	for qi := range ds.Queries {
		memRatio += OverallRatio(memRes[qi], gt[qi], 3)
		parRatio += OverallRatio(parRes[qi], gt[qi], 3)
	}
	rep, err := disk.Simulate(ds.Queries, SimulationConfig{Device: EnterpriseSSD, Devices: 2, Iface: SPDK, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var simRatio float64
	for qi, res := range rep.Results {
		simRatio += OverallRatio(res, gt[qi], 3)
	}
	nq := float64(ds.NQ())
	memRatio, parRatio, simRatio = memRatio/nq, parRatio/nq, simRatio/nq
	if math.Abs(memRatio-parRatio) > 0.05 {
		t.Errorf("in-memory ratio %v vs parallel storage ratio %v diverge", memRatio, parRatio)
	}
	if math.Abs(parRatio-simRatio) > 0.05 {
		t.Errorf("parallel ratio %v vs simulated ratio %v diverge", parRatio, simRatio)
	}
}

// TestOnlineUpdatesThroughFacade exercises the §7 extension end to end.
func TestOnlineUpdatesThroughFacade(t *testing.T) {
	ctx := context.Background()
	ds, err := GenerateDataset(DatasetSpec{
		Name: "upd", N: 2000, Queries: 5, Dim: 16,
		Clusters: 4, Spread: 0.05, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewStorageIndex(ds.Vectors[:1500], Config{Sigma: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a held-out vector; it must be findable afterwards.
	id, err := ix.Insert(ds.Vectors[1600])
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ix.Search(ctx, ds.Vectors[1600])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) == 0 || res.Neighbors[0].ID != id || res.Neighbors[0].Dist != 0 {
		t.Fatalf("inserted vector not found: %+v", res.Neighbors)
	}
	removed, err := ix.Delete(id)
	if err != nil {
		t.Fatal(err)
	}
	if !removed {
		t.Fatal("delete removed nothing")
	}
	res, _, err = ix.Search(ctx, ds.Vectors[1600])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) > 0 && res.Neighbors[0].ID == id {
		t.Fatal("deleted vector still found")
	}
}

// TestSearchInvariantsProperty uses testing/quick to fuzz query vectors:
// results must always be sorted, unique and within the database.
func TestSearchInvariantsProperty(t *testing.T) {
	ctx := context.Background()
	ds, err := GenerateDataset(DatasetSpec{
		Name: "prop", N: 1000, Queries: 1, Dim: 8,
		Clusters: 4, Spread: 0.1, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewInMemoryIndex(ds.Vectors, Config{Sigma: 16})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw [8]float32) bool {
		q := make([]float32, 8)
		for i, x := range raw {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				x = 0
			}
			// Clamp into the data's general range.
			q[i] = float32(math.Mod(float64(x), 2))
		}
		res, _, err := mem.Search(ctx, q, WithK(5))
		if err != nil {
			return false
		}
		seen := map[uint32]bool{}
		prev := -1.0
		for _, nb := range res.Neighbors {
			if int(nb.ID) >= ds.N() {
				return false
			}
			if seen[nb.ID] {
				return false
			}
			seen[nb.ID] = true
			if float64(nb.Dist) < prev {
				return false
			}
			prev = nb.Dist
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
