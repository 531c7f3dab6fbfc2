package diskindex

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/faultinject"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/ladder"
	"e2lshos/internal/telemetry"
)

// TestNonBlockingEngineMatchesReference is the serving searcher's
// equivalence criterion over an engine whose backend does not block, where
// every query walks in line through the engine's Read. The backend is the
// RAM slab with one read in a hundred stalled past the engine's blocking
// threshold, as a preempted read would be: scattered slow reads must not
// turn the engine blocking. Over queue depth {1, 16} × cache {off, on} ×
// readahead {0, 2} × one and four hash partitions × multi-probe {0, 2} × a
// generous and a truncating budget, the top-k is bitwise the reference
// Searcher's and so is every logical counter — table and bucket blocks,
// entries scanned, fingerprint rejects, duplicates and checks — and
// readahead prefetches nothing. Over a backend that blocks, the same
// searcher reads its rounds as waves, and a wave's reads overlap.
func TestNonBlockingEngineMatchesReference(t *testing.T) {
	d, ix, _ := testSetup(t, 2000, 1000, DefaultOptions())
	type knobs struct {
		name string
		kn   ladder.Knobs
	}
	var grid []knobs
	for _, sigma := range []int{1000, 2} {
		for _, mp := range []int{0, 2} {
			grid = append(grid, knobs{fmt.Sprintf("sigma%d/mp%d", sigma, mp),
				ladder.Knobs{K: 5, Budget: sigma * ix.params.L, MultiProbe: mp}})
		}
	}
	type answer struct {
		nbrs []ann.Neighbor
		st   Stats
	}
	for _, parts := range []int{1, 4} {
		ix.SetPartitions(parts)
		ref := ix.NewSearcher()
		want := make([][]answer, len(grid))
		for g, c := range grid {
			for _, q := range d.Queries {
				res, st, err := ref.Run(context.Background(), q, c.kn, nil)
				if err != nil {
					t.Fatal(err)
				}
				want[g] = append(want[g], answer{res.Neighbors, st})
			}
		}
		for _, depth := range []int{1, 16} {
			for _, cacheBytes := range []int64{0, 64 << 20} {
				for _, readahead := range []int{0, 2} {
					name := fmt.Sprintf("parts%d/depth%d/cache%v/readahead%d", parts, depth, cacheBytes > 0, readahead)
					t.Run(name, func(t *testing.T) {
						slow, fb := faultyCopy(t, ix, faultinject.Schedule{Seed: 11, SlowRead: 0.01, SlowDelay: slowRead})
						view := withEngine(t, slow, ioengine.Options{Depth: depth}, cacheBytes, readahead)
						ws := view.NewWaveSearcher()
						for g, c := range grid {
							for qi, q := range d.Queries {
								res, st, err := ws.Run(context.Background(), q, c.kn, nil)
								if err != nil {
									t.Fatal(err)
								}
								w := want[g][qi]
								if !slices.Equal(res.Neighbors, w.nbrs) {
									t.Fatalf("%s query %d: neighbors %v, the reference's %v", c.name, qi, res.Neighbors, w.nbrs)
								}
								type logical struct {
									TableIOs, BucketIOs, EntriesScanned, FPRejected, Duplicates, Checked int
								}
								of := func(st Stats) logical {
									return logical{st.TableIOs, st.BucketIOs, st.EntriesScanned, st.FPRejected, st.Duplicates, st.Checked}
								}
								if g, w := of(st), of(w.st); g != w {
									t.Fatalf("%s query %d: counters %+v, the reference's %+v", c.name, qi, g, w)
								}
								if st.PrefetchedBlocks != 0 {
									t.Fatalf("%s query %d: readahead prefetched %d blocks over a backend that does not block", c.name, qi, st.PrefetchedBlocks)
								}
								if cacheBytes > 0 && st.CacheHits+st.CacheMisses != st.IOs() {
									t.Fatalf("%s query %d: cache outcomes %d+%d do not cover %d block reads", c.name, qi, st.CacheHits, st.CacheMisses, st.IOs())
								}
							}
						}
						if fb.Counters().SlowReads == 0 {
							t.Error("no read was slow; the fixture injects nothing")
						}
					})
				}
			}
		}
	}

	t.Run("blocking", func(t *testing.T) {
		ix.SetPartitions(1)
		// Stalls long enough to sleep, so that a wave's helpers get to run
		// even on one processor.
		slow, fb := faultyCopy(t, ix, faultinject.Schedule{SlowRead: 1, SlowDelay: 200 * time.Microsecond})
		counted := &inFlightBackend{Backend: fb}
		slow.store = blockstore.NewWithBackend(counted)
		view := withEngine(t, slow, ioengine.Options{Depth: 16}, 0, 0)
		tipBlocking(t, view.IOEngine())
		counted.most.Store(0)
		ws := view.NewWaveSearcher()
		col := telemetry.New(telemetry.Config{SampleRate: 1})
		waves := 0
		for _, q := range d.Queries[:3] {
			tr := col.StartTrace()
			if _, _, err := ws.Run(context.Background(), q, ladder.Knobs{K: 5, Trace: tr}, nil); err != nil {
				t.Fatal(err)
			}
			for _, sp := range tr.Spans() {
				if sp.Stage == telemetry.StageIOWait {
					waves++
				}
			}
		}
		if waves == 0 {
			t.Error("over a backend that blocks the rounds were walked, not read as waves")
		}
		if m := counted.most.Load(); m < 2 {
			t.Errorf("at most %d reads were in flight at once: no wave fanned out", m)
		}
	})
}

// inFlightBackend records the most reads its backend had in flight at once.
type inFlightBackend struct {
	blockstore.Backend
	in, most atomic.Int64
}

func (b *inFlightBackend) ReadBlock(a blockstore.Addr, buf []byte) error {
	n := b.in.Add(1)
	defer b.in.Add(-1)
	for m := b.most.Load(); n > m && !b.most.CompareAndSwap(m, n); m = b.most.Load() {
	}
	return b.Backend.ReadBlock(a, buf)
}

func (b *inFlightBackend) ReadBlocks(addrs []blockstore.Addr, bufs [][]byte) (int, error) {
	return blockstore.ReadBlocksSerial(b, addrs, bufs)
}
