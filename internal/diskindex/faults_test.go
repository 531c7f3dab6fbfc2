package diskindex

import (
	"context"
	"testing"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/faultinject"
)

// faultyCopy clones an index's blocks into a fresh store behind a
// fault-injecting backend, so queries run against deterministic storage
// faults without an I/O engine or cache in the way.
func faultyCopy(t testing.TB, ix *Index, sch faultinject.Schedule) (*Index, *faultinject.Backend) {
	t.Helper()
	inner := blockstore.NewMemBackend()
	buf := make([]byte, blockstore.BlockSize)
	for a := blockstore.Addr(1); a <= blockstore.Addr(ix.Store().NumBlocks()); a++ {
		if err := ix.Store().ReadBlock(a, buf); err != nil {
			t.Fatal(err)
		}
		if err := inner.WriteBlock(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	fb := faultinject.Wrap(inner, sch)
	clone := *ix
	clone.store = blockstore.NewWithBackend(fb)
	return &clone, fb
}

// TestSyncSearchDegradesOnStorageFaults: storage faults skip the affected
// chains instead of failing the query — every query answers, the ones that
// lost chains say so via Partial, and FaultedReads accounts exactly for the
// injected failures (no engine, no retries: one injected EIO is one faulted
// read is one skipped chain).
func TestSyncSearchDegradesOnStorageFaults(t *testing.T) {
	d, ix, _ := testSetup(t, 800, 8, DefaultOptions())
	for _, failAfter := range []int{1, 3, 16} {
		faulty, fb := faultyCopy(t, ix, faultinject.Schedule{Seed: 1, FailAfter: failAfter})
		s := faulty.NewSearcher()
		faulted, partials := 0, 0
		for _, q := range d.Queries {
			_, st, err := s.Search(q, 1)
			if err != nil {
				t.Fatalf("failAfter=%d: query failed instead of degrading: %v", failAfter, err)
			}
			faulted += st.FaultedReads
			partials += st.Partial
			if st.FaultedReads != st.SkippedChains {
				t.Fatalf("failAfter=%d: FaultedReads=%d SkippedChains=%d, want equal on the sequential path",
					failAfter, st.FaultedReads, st.SkippedChains)
			}
			if (st.Partial == 1) != (st.SkippedChains > 0) {
				t.Fatalf("failAfter=%d: Partial=%d with SkippedChains=%d", failAfter, st.Partial, st.SkippedChains)
			}
		}
		if partials == 0 {
			t.Errorf("failAfter=%d: dead device produced no partial results", failAfter)
		}
		if got := fb.Counters().Failures(); int64(faulted) != got {
			t.Errorf("failAfter=%d: Stats.FaultedReads total %d != injected failures %d",
				failAfter, faulted, got)
		}
	}
}

// TestWaveSearchDegradesOnStorageFaults: the in-line wave searcher keeps a
// probe's partially collected candidates when its chain is cut short,
// answers every query, and counts exactly one faulted read per injected
// failure (no block is read twice).
func TestWaveSearchDegradesOnStorageFaults(t *testing.T) {
	d, ix, _ := testSetup(t, 800, 8, DefaultOptions())
	faulty, fb := faultyCopy(t, ix, faultinject.Schedule{Seed: 2, FailAfter: 2})
	ps := faulty.NewWaveSearcher()
	faulted, partials := 0, 0
	for _, q := range d.Queries {
		_, st, err := ps.Search(q, 1)
		if err != nil {
			t.Fatalf("wave query failed instead of degrading: %v", err)
		}
		faulted += st.FaultedReads
		partials += st.Partial
	}
	if partials == 0 {
		t.Error("dead device produced no partial results")
	}
	if got := fb.Counters().Failures(); int64(faulted) != got {
		t.Errorf("Stats.FaultedReads total %d != injected failures %d", faulted, got)
	}
}

// TestCancellationStillPropagates: degraded mode is for storage faults
// only; a canceled context aborts the query with its error, exactly as
// before.
func TestCancellationStillPropagates(t *testing.T) {
	d, ix, _ := testSetup(t, 500, 8, DefaultOptions())
	s := ix.NewSearcher()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, st, err := s.SearchContext(ctx, d.Queries[0], 1); err != context.Canceled {
		t.Fatalf("canceled search: err=%v", err)
	} else if st.Partial != 0 {
		t.Fatal("cancellation must not masquerade as a partial result")
	}
}

func TestHealthySearchAfterManyReads(t *testing.T) {
	// A fault budget larger than the workload must never trigger, and a
	// healthy run must never claim partial results.
	d, ix, _ := testSetup(t, 500, 8, DefaultOptions())
	faulty, _ := faultyCopy(t, ix, faultinject.Schedule{Seed: 3, FailAfter: 1 << 30})
	s := faulty.NewSearcher()
	for _, q := range d.Queries {
		_, st, err := s.Search(q, 1)
		if err != nil {
			t.Fatalf("unexpected error from healthy wrapped store: %v", err)
		}
		if st.Partial != 0 || st.FaultedReads != 0 || st.SkippedChains != 0 {
			t.Fatalf("healthy run reported degradation: %+v", st)
		}
	}
}
