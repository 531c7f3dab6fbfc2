package e2lshos

import (
	"context"
	"testing"
	"time"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/faultinject"
)

// chaosDataset is small enough that every engine × schedule cell builds in
// milliseconds but large enough that a 1% fault rate lands dozens of hits.
func chaosDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := GenerateDataset(DatasetSpec{
		Name: "chaos", N: 600, Queries: 40, Dim: 16,
		Clusters: 4, Spread: 0.08, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// chaosBuild is one engine variant under chaos: its builder returns the
// engine, every fault backend under it (armed by the test after the clean
// build), and the search options that select its query path.
type chaosBuild struct {
	name string
	// parity: every injected failure maps 1:1 onto Stats.FaultedReads (no
	// retry layer, no cache absorbing or re-paying reads).
	parity bool
	// retried: the retry layer is on, so at a 1% fault rate ≥99% of queries
	// must come back non-partial.
	retried bool
	build   func(t *testing.T, d *Dataset, sch faultinject.Schedule) (Engine, []*faultinject.Backend, []SearchOption)
}

// storageChaosBuilder builds a single faulty StorageIndex variant.
func storageChaosBuilder(searchOpts []SearchOption, stOpts ...StorageOption) func(*testing.T, *Dataset, faultinject.Schedule) (Engine, []*faultinject.Backend, []SearchOption) {
	return func(t *testing.T, d *Dataset, sch faultinject.Schedule) (Engine, []*faultinject.Backend, []SearchOption) {
		t.Helper()
		fb := faultinject.Wrap(blockstore.NewMemBackend(), sch)
		fb.Disarm() // the build phase must land intact
		ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 8},
			append([]StorageOption{WithStorageBackend(fb)}, stOpts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return ix, []*faultinject.Backend{fb}, searchOpts
	}
}

// shardedChaosBuilder builds a 2-shard router with one fault backend per
// shard (shards own separate stores; sharing one backend would collide).
func shardedChaosBuilder() func(*testing.T, *Dataset, faultinject.Schedule) (Engine, []*faultinject.Backend, []SearchOption) {
	return func(t *testing.T, d *Dataset, sch faultinject.Schedule) (Engine, []*faultinject.Backend, []SearchOption) {
		t.Helper()
		var fbs []*faultinject.Backend
		build := func(shardNum int, vectors [][]float32) (Engine, error) {
			shardSch := sch
			shardSch.Seed = sch.Seed + uint64(shardNum)
			fb := faultinject.Wrap(blockstore.NewMemBackend(), shardSch)
			fb.Disarm()
			fbs = append(fbs, fb)
			return NewStorageIndex(vectors, Config{Sigma: 8}, WithStorageBackend(fb))
		}
		ix, err := NewShardedIndex(d.Vectors, 2, PlaceRange, build)
		if err != nil {
			t.Fatal(err)
		}
		return ix, fbs, nil
	}
}

// injectedFaults is how many read attempts the backends failed or silently
// corrupted — with checksums on, exactly the attempts the engine must have
// seen as faults.
func injectedFaults(fbs []*faultinject.Backend) int64 {
	var n int64
	for _, fb := range fbs {
		c := fb.Counters()
		n += c.Failures() + c.BitFlips
	}
	return n
}

// TestChaosEnginesServeUnderFaults drives every engine variant through
// fault schedules and asserts the robustness contract: all queries are
// served (degraded, never failed), no panic, no hang past the deadline,
// the degraded-mode counters stay coherent, and — where the engine has no
// absorbing layers — Stats.FaultedReads accounts exactly for the injected
// faults.
func TestChaosEnginesServeUnderFaults(t *testing.T) {
	d := chaosDataset(t)
	engines := []chaosBuild{
		{name: "inline", parity: true,
			build: storageChaosBuilder(nil)},
		{name: "inline-multiprobe", parity: true,
			build: storageChaosBuilder([]SearchOption{WithMultiProbe(2)})},
		{name: "cached",
			build: storageChaosBuilder(nil, WithBlockCache(1<<20), WithReadahead(2))},
		{name: "retry-only", retried: true,
			build: storageChaosBuilder(nil, WithRetries(3))},
		{name: "vectored-retry", retried: true,
			build: storageChaosBuilder([]SearchOption{WithMultiProbe(2)}, WithIOEngine(8), WithRetries(3))},
		{name: "sharded", parity: true,
			build: shardedChaosBuilder()},
	}
	schedules := []struct {
		name string
		sch  faultinject.Schedule
		// independent: faults are independent per-attempt rolls, so retries
		// clear them with probability 1-p and the ≥99% non-partial bar
		// applies. FailFirst bursts violate that model by design — they
		// exhaust retries and feed the quarantine.
		independent bool
	}{
		{"one-percent-all-kinds", faultinject.Schedule{
			Seed: 42, EIO: 0.01, ShortRead: 0.01, BitFlip: 0.01,
			SlowRead: 0.01, SlowDelay: 50 * time.Microsecond,
		}, true},
		{"fail-first-25", faultinject.Schedule{Seed: 7, FailFirst: 25}, false},
	}

	for _, eb := range engines {
		for _, sc := range schedules {
			t.Run(eb.name+"/"+sc.name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				eng, fbs, opts := eb.build(t, d, sc.sch)
				for _, fb := range fbs {
					fb.Arm()
				}
				opts = append(opts, WithK(3))

				var total Stats
				results, bst, err := eng.BatchSearch(ctx, d.Queries, opts...)
				if err != nil {
					t.Fatalf("BatchSearch failed instead of degrading: %v", err)
				}
				if len(results) != len(d.Queries) {
					t.Fatalf("BatchSearch returned %d results for %d queries", len(results), len(d.Queries))
				}
				total.Merge(bst)

				for qi, q := range d.Queries {
					_, st, err := eng.Search(ctx, q, opts...)
					if err != nil {
						t.Fatalf("query %d failed instead of degrading: %v", qi, err)
					}
					total.Merge(st)
				}
				if ctx.Err() != nil {
					t.Fatal("chaos run overran its deadline (hang)")
				}

				// Degraded-mode counter coherence, every engine, every
				// schedule.
				if total.FaultedReads != total.SkippedChains {
					t.Errorf("FaultedReads %d != SkippedChains %d", total.FaultedReads, total.SkippedChains)
				}
				if (total.Partial > 0) != (total.SkippedChains > 0) {
					t.Errorf("Partial %d inconsistent with SkippedChains %d", total.Partial, total.SkippedChains)
				}
				if total.Partial > total.Queries {
					t.Errorf("Partial %d exceeds Queries %d", total.Partial, total.Queries)
				}

				injected := injectedFaults(fbs)
				if eb.parity {
					if int64(total.FaultedReads) != injected {
						t.Errorf("counter parity broken: Stats.FaultedReads %d, injected faults %d", total.FaultedReads, injected)
					}
				}
				if eb.retried && sc.independent {
					nonPartial := total.Queries - total.Partial
					if nonPartial*100 < total.Queries*99 {
						t.Errorf("only %d/%d queries non-partial; retries should absorb ≥99%% at a 1%% fault rate", nonPartial, total.Queries)
					}
				}
				// Sanity: the schedule actually fired, so the green
				// assertions above were exercised rather than vacuous.
				if injected == 0 && (sc.sch.EIO > 0 || sc.sch.FailFirst > 0) {
					t.Error("schedule injected nothing; chaos coverage is vacuous")
				}
			})
		}
	}
}

// TestChaosAsyncSimulation drives the async (simulated) engine through the
// same 1% schedule: the zero-block degrade path must serve every query, and
// the engine-level fault count must match the injection exactly (the sched
// path has no retry layer).
func TestChaosAsyncSimulation(t *testing.T) {
	d := chaosDataset(t)
	fb := faultinject.Wrap(blockstore.NewMemBackend(), faultinject.Schedule{
		Seed: 23, EIO: 0.01, ShortRead: 0.01, BitFlip: 0.01,
	})
	fb.Disarm()
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 8}, WithStorageBackend(fb))
	if err != nil {
		t.Fatal(err)
	}
	fb.Arm()
	rep, err := ix.Simulate(d.Queries, SimulationConfig{
		Device: ConsumerSSD, Iface: IOUring, Threads: 2, K: 3, QueueDepth: 8,
	})
	if err != nil {
		t.Fatalf("simulation failed instead of degrading: %v", err)
	}
	if len(rep.Results) != len(d.Queries) {
		t.Fatalf("simulation returned %d results for %d queries", len(rep.Results), len(d.Queries))
	}
	injected := injectedFaults([]*faultinject.Backend{fb})
	if rep.FaultedReads != injected {
		t.Errorf("async counter parity broken: report %d faulted reads, injected %d", rep.FaultedReads, injected)
	}
	if injected == 0 {
		t.Error("schedule injected nothing; async chaos coverage is vacuous")
	}
}
