package e2lshos

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// Allocation ceilings per facade call after warm-up, as measured; none
// depends on n. Search, called through the Engine interface with two
// options: the variadic option slice, one closure per option, the resolved
// settings those closures write into, and the returned neighbor slice — the
// checked-out searcher itself allocates nothing. BatchSearch over a 1-query
// batch with one worker: the query batch, the option slice and its two
// closures, the results slice, the neighbor slab, and the worker goroutine —
// the settings block and the pool's shared counters come off the engine's
// free list with the rest of the batch's run state.
const (
	facadeSearchAllocs = 5
	facadeBatchAllocs  = 7
)

// TestFacadeSearchZeroAllocs moves the searchers' zero-allocation gate up to
// the facade: Search and BatchSearch check a searcher out of the engine's
// free list instead of building one — an O(n) visited array and all arenas —
// per call, so after warm-up a query costs a small constant number of
// allocations and the bytes allocated per query do not grow with n.
func TestFacadeSearchZeroAllocs(t *testing.T) {
	ctx := context.Background()
	const k = 10
	type measured struct{ searchBytes, batchBytes float64 }
	measure := func(t *testing.T, n int, build func(data [][]float32) (Engine, error)) measured {
		ds, err := GenerateDataset(DatasetSpec{
			Name: "alloc", N: n, Queries: 20, Dim: 16, Clusters: 8, Spread: 0.05, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := build(ds.Vectors)
		if err != nil {
			t.Fatal(err)
		}
		qi := 0
		search := func() {
			q := ds.Queries[qi%len(ds.Queries)]
			qi++
			if _, _, err := eng.Search(ctx, q, WithK(k), WithBudget(64)); err != nil {
				t.Fatal(err)
			}
		}
		batch := func() {
			q := ds.Queries[qi%len(ds.Queries)]
			qi++
			if _, _, err := eng.BatchSearch(ctx, [][]float32{q}, WithK(k), WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
		}
		for range ds.Queries { // warm-up: build and size the pooled searcher
			search()
			batch()
		}
		if a := testing.AllocsPerRun(100, search); a > facadeSearchAllocs {
			t.Errorf("n=%d: Search allocates %v times per query, want at most %d", n, a, facadeSearchAllocs)
		}
		if a := testing.AllocsPerRun(100, batch); a > facadeBatchAllocs {
			t.Errorf("n=%d: 1-query BatchSearch allocates %v times per call, want at most %d", n, a, facadeBatchAllocs)
		}
		return measured{bytesPerRun(100, search), bytesPerRun(100, batch)}
	}
	engines := map[string]func(data [][]float32) (Engine, error){
		"storage": func(data [][]float32) (Engine, error) { return NewStorageIndex(data, Config{Sigma: 8}) },
		"memory":  func(data [][]float32) (Engine, error) { return NewInMemoryIndex(data, Config{Sigma: 8}) },
	}
	if !raceEnabled { // the race detector has sync.Pool drop the I/O engine's arenas at random
		// Every wave of these queries is all-miss (no cache), and the engine
		// adds nothing to the ceilings: its flights, sort and run slices come
		// out of its pooled arena. The one allowance is a fan-out — an
		// operation slower than the engine's blocking threshold, here a
		// preempted memory read, starts up to 15 helper goroutines at one
		// closure each — which AllocsPerRun's mean over 100 queries absorbs.
		engines["storage+ioengine"] = func(data [][]float32) (Engine, error) {
			return NewStorageIndex(data, Config{Sigma: 8}, WithIOEngine(16))
		}
	}
	for name, build := range engines {
		t.Run(name, func(t *testing.T) {
			small, large := measure(t, 2000, build), measure(t, 20000, build)
			// A searcher rebuilt per call would add 4 bytes per object: 72 KB
			// between these sizes. The slack covers a longer ladder at the
			// larger n growing a reused arena once.
			const slack = 512
			if large.searchBytes > small.searchBytes+slack {
				t.Errorf("Search allocates %.0f B/query at n=20000 vs %.0f at n=2000: grows with n",
					large.searchBytes, small.searchBytes)
			}
			if large.batchBytes > small.batchBytes+slack {
				t.Errorf("BatchSearch allocates %.0f B/call at n=20000 vs %.0f at n=2000: grows with n",
					large.batchBytes, small.batchBytes)
			}
			t.Logf("Search %.0f → %.0f B/query, 1-query BatchSearch %.0f → %.0f B/call (n=2000 → 20000)",
				small.searchBytes, large.searchBytes, small.batchBytes, large.batchBytes)
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes f
// allocates per call, measured on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestTunedSearchZeroAllocs: a tuned Search allocates what the same call
// allocates with autotuning off, on one hash partition and on four. The
// ladder starts one controller per partition from the engine's tuner, and
// controllers come out of the tuner's pool, so the controller hand-off costs
// no allocation however many partitions the index has.
func TestTunedSearchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector has sync.Pool drop pooled controllers at random")
	}
	ctx := context.Background()
	ds, err := GenerateDataset(DatasetSpec{
		Name: "alloc", N: 2000, Queries: 20, Dim: 16, Clusters: 8, Spread: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ix, err := NewStorageIndex(ds.Vectors, Config{Sigma: 8}, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			qi := 0
			search := func() {
				q := ds.Queries[qi%len(ds.Queries)]
				qi++
				if _, _, err := ix.Search(ctx, q, WithK(10), WithTuning(SearchTuning{RecallTarget: 0.9})); err != nil {
					t.Fatal(err)
				}
			}
			measure := func() float64 {
				for range ds.Queries { // warm-up: the pooled searcher and controllers
					search()
				}
				return testing.AllocsPerRun(100, search)
			}
			untuned := measure()
			ix.EnableAutotune()
			if tuned := measure(); tuned != untuned {
				t.Errorf("a tuned Search allocates %v times, an untuned one %v", tuned, untuned)
			}
		})
	}
}
