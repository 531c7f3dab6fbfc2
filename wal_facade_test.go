package e2lshos

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWALFacadeRoundTrip drives the crash-safety surface end to end at the
// facade: build with WithWAL, mutate, recover with OpenWALIndex, checkpoint,
// recover again.
func TestWALFacadeRoundTrip(t *testing.T) {
	ctx := context.Background()
	ds, err := GenerateDataset(DatasetSpec{
		Name: "walf", N: 2000, Queries: 5, Dim: 16,
		Clusters: 4, Spread: 0.05, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := ds.Vectors[:1500]
	dir := t.TempDir()
	ix, err := NewStorageIndex(base, Config{Sigma: 64}, WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	var inserted []uint32
	for i := 1500; i < 1510; i++ {
		id, err := ix.Insert(ds.Vectors[i])
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, id)
	}
	if _, err := ix.Delete(inserted[0]); err != nil {
		t.Fatal(err)
	}
	st := ix.RecoveryStats()
	if st.Appends != 11 || st.Inserts != 10 || st.Deletes != 1 {
		t.Fatalf("live stats: %+v", st)
	}

	// Recover: acked updates come back without the original index object.
	rec, err := OpenWALIndex(dir, base, WithBlockCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	rst := rec.RecoveryStats()
	if rst.Replayed != 11 || rst.TornTail || rst.Generation != 1 {
		t.Fatalf("recovery stats: %+v", rst)
	}
	for _, id := range inserted[1:] {
		res, _, err := rec.Search(ctx, ds.Vectors[id], WithK(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) == 0 || res.Neighbors[0].ID != id || res.Neighbors[0].Dist != 0 {
			t.Fatalf("recovered insert %d not self-found: %+v", id, res.Neighbors)
		}
	}

	// Checkpoint bounds the next replay to post-checkpoint records only.
	if err := rec.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Insert(ds.Vectors[1510]); err != nil {
		t.Fatal(err)
	}
	rec2, err := OpenWALIndex(dir, base)
	if err != nil {
		t.Fatal(err)
	}
	rst2 := rec2.RecoveryStats()
	if rst2.Replayed != 1 || rst2.Generation != 2 {
		t.Fatalf("post-checkpoint recovery stats: %+v", rst2)
	}
}

// TestWALFacadeConcurrentUpdates runs facade searches against concurrent
// durable inserts — the serving pattern /v1/insert enables.
func TestWALFacadeConcurrentUpdates(t *testing.T) {
	ctx := context.Background()
	ds, err := GenerateDataset(DatasetSpec{
		Name: "walc", N: 1100, Queries: 5, Dim: 16,
		Clusters: 4, Spread: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewStorageIndex(ds.Vectors[:1000], Config{Sigma: 64}, WithWAL(t.TempDir()), WithFsyncEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for qi := 0; ; qi++ {
				select {
				case <-stop:
					return
				default:
				}
				q := ds.Vectors[(g*113+qi*17)%1000]
				if _, _, err := ix.Search(ctx, q, WithK(3)); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 1000; i < 1020; i++ {
		if _, err := ix.Insert(ds.Vectors[i]); err != nil {
			t.Errorf("insert %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestBudgetedBatchSearchBesideInsert is /v1/search with "budget" next to
// /v1/insert: budgeted batches over freshly inserted vectors while Insert
// keeps running. WithBudget used to copy the index per call, reading the
// dataset slice outside the update lock — a data race with Insert's append,
// and a stale snapshot that could not see the inserted IDs. Run under -race
// (make crash does).
func TestBudgetedBatchSearchBesideInsert(t *testing.T) {
	ctx := context.Background()
	ds, err := GenerateDataset(DatasetSpec{
		Name: "walb", N: 1020, Queries: 5, Dim: 16,
		Clusters: 4, Spread: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewStorageIndex(ds.Vectors[:1000], Config{Sigma: 64})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64 // vectors inserted so far
	check := func() {
		hi := 1000 + int(n.Load())
		res, _, err := ix.BatchSearch(ctx, ds.Vectors[1000:hi], WithBudget(1<<20), WithWorkers(1))
		if err != nil {
			t.Errorf("batch over %d inserted vectors: %v", hi-1000, err)
			return
		}
		for j, r := range res {
			if len(r.Neighbors) == 0 || r.Neighbors[0].ID != uint32(1000+j) || r.Neighbors[0].Dist != 0 {
				t.Errorf("vector %d not self-found at distance 0: %+v", 1000+j, r.Neighbors)
			}
		}
	}
	// The reader announces every batch it is about to run and the writer
	// inserts on that cue, so each insert lands beside a running batch.
	cue, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case cue <- struct{}{}:
				check()
			case <-stop:
				return
			}
		}
	}()
	for i := 1000; i < 1020; i++ {
		<-cue
		if _, err := ix.Insert(ds.Vectors[i]); err != nil {
			t.Errorf("insert %d: %v", i, err)
			break
		}
		n.Add(1)
	}
	close(stop)
	<-done
	check()
}

// TestWALOptionValidation pins the option-combination errors, and that an
// opened image starts a log that OpenWALIndex recovers.
func TestWALOptionValidation(t *testing.T) {
	ds, err := GenerateDataset(DatasetSpec{
		Name: "walv", N: 300, Queries: 1, Dim: 8,
		Clusters: 2, Spread: 0.1, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStorageIndex(ds.Vectors, Config{}, WithFsyncEvery(4)); err == nil {
		t.Fatal("WithFsyncEvery without WithWAL accepted")
	}
	if _, err := NewStorageIndex(ds.Vectors, Config{}, WithWAL(t.TempDir()), WithFsyncEvery(-1)); err == nil {
		t.Fatal("negative fsync interval accepted")
	}
	img := t.TempDir() + "/img"
	ix, err := NewStorageIndex(ds.Vectors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFile(img); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err == nil {
		t.Fatal("Checkpoint without WithWAL succeeded")
	}
	dir := t.TempDir()
	opened, err := OpenStorageIndex(img, ds.Vectors, WithWAL(dir))
	if err != nil {
		t.Fatalf("OpenStorageIndex with WithWAL: %v", err)
	}
	id, err := opened.Insert(ds.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, err := OpenWALIndex(dir, ds.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := rec.Search(context.Background(), ds.Queries[0], WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := rec.RecoveryStats(); st.Replayed != 1 || len(res.Neighbors) == 0 || res.Neighbors[0].ID != id {
		t.Fatalf("recovered the opened image's log: %+v, top neighbors %v, want insert %d", st, res.Neighbors, id)
	}
}
