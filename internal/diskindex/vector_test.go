package diskindex

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/faultinject"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/iosim"
	"e2lshos/internal/ladder"
	"e2lshos/internal/telemetry"
)

// engineAttached returns a view of ix whose reads go through a fresh
// vectored I/O engine (and optionally a fresh cache + readahead inside it),
// sharing the frozen index structures with the receiver.
func engineAttached(t testing.TB, ix *Index, depth int, cacheBytes int64, readahead int) *Index {
	t.Helper()
	return withEngine(t, ix, ioengine.Options{Depth: depth}, cacheBytes, readahead)
}

// withEngine is engineAttached with full control of the engine options.
func withEngine(t testing.TB, ix *Index, opts ioengine.Options, cacheBytes int64, readahead int) *Index {
	t.Helper()
	clone := *ix
	if cacheBytes > 0 {
		cache, err := blockcache.New(cacheBytes, blockcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = cache
	}
	eng, err := ioengine.New(clone.store, opts)
	if err != nil {
		t.Fatal(err)
	}
	clone.AttachIOEngine(eng, readahead)
	return &clone
}

// slowRead is how long every read of a blockingEngine view's store takes:
// past ioengine's blocking threshold (10µs), short enough for a test.
const slowRead = 15 * time.Microsecond

// blockingEngine is withEngine over a copy of ix whose every read stalls
// for slowRead, with the engine already blocking: every query on the view
// reads its rounds as waves, fanned out at the engine's depth, and runs
// readahead. The view holds ix's blocks as they are when it is made.
func blockingEngine(t *testing.T, ix *Index, opts ioengine.Options, cacheBytes int64, readahead int) *Index {
	t.Helper()
	slow, _ := faultyCopy(t, ix, faultinject.Schedule{SlowRead: 1, SlowDelay: slowRead})
	view := withEngine(t, slow, opts, cacheBytes, readahead)
	tipBlocking(t, view.IOEngine())
	return view
}

// tipBlocking reads a block through a fresh engine over a store whose reads
// block, dropping it from the engine's cache each time, until the engine
// says it is blocking.
func tipBlocking(t *testing.T, eng *ioengine.Engine) {
	t.Helper()
	buf := make([]byte, blockstore.BlockSize)
	for n := 0; !eng.Blocking(); n++ {
		if n == 1024 {
			t.Fatal("the engine is not blocking after 1024 slow reads")
		}
		if err := eng.Read(1, buf, nil); err != nil {
			t.Fatal(err)
		}
		if c := eng.Cache(); c != nil {
			c.Invalidate(1)
		}
	}
}

// logicalStats strips the physical-path counters (cache, coalescing, dedup,
// prefetch) so two runs can be compared on what the algorithm did.
func logicalStats(st Stats) Stats {
	st.CacheHits = 0
	st.CacheMisses = 0
	st.PrefetchedBlocks = 0
	st.CoalescedReads = 0
	st.DedupedReads = 0
	st.PhysicalReads = 0
	return st
}

// bucketLayouts are the on-storage shapes the equivalence tests sweep: the
// default table, whose buckets mostly pack into shared blocks, and a tiny
// table whose buckets overflow into chains.
func bucketLayouts() []struct {
	name string
	opts Options
} {
	chained := DefaultOptions()
	chained.TableBits = 6
	return []struct {
		name string
		opts Options
	}{{"512B", DefaultOptions()}, {"chained", chained}}
}

// TestVectoredFetchMatchesSerial: with the I/O engine attached, the reference
// searcher must stay read-for-read identical to the raw store — same
// neighbors, distances and logical N_IO — on generous budgets AND under
// mid-round budget truncation, cached and uncached, across bucket layouts.
// (The serving searcher's equivalence is TestWaveOptionMatrix.)
func TestVectoredFetchMatchesSerial(t *testing.T) {
	for _, lay := range bucketLayouts() {
		d, ix, _ := testSetup(t, 2000, 1000, lay.opts)
		for _, sigma := range []int{1000, 2} {
			kn := ladder.Knobs{K: 5, Budget: sigma * ix.params.L}
			for _, cacheBytes := range []int64{0, 64 << 20} {
				t.Run(fmt.Sprintf("%s/sigma%d/cache%d", lay.name, sigma, cacheBytes), func(t *testing.T) {
					plainSeq := ix.NewSearcher()
					vecSeq := engineAttached(t, ix, 16, cacheBytes, 0).NewSearcher()
					for qi, q := range d.Queries {
						want, wantSt, err := plainSeq.Run(context.Background(), q, kn, nil)
						if err != nil {
							t.Fatal(err)
						}
						got, gotSt, err := vecSeq.Run(context.Background(), q, kn, nil)
						if err != nil {
							t.Fatal(err)
						}
						compareRuns(t, "sequential", qi, want.Neighbors, got.Neighbors, wantSt, gotSt, cacheBytes > 0)
					}
				})
			}
		}
	}
}

// TestWaveOptionMatrix is the serving searcher's equivalence criterion over
// the whole storage option matrix: with no engine, an engine with only a
// cache, only queue depth, cache + depth + readahead, or retries, the top-k
// is bitwise the reference Searcher's (same knobs). In line, where the wave
// searcher walks its buckets as the reference does, every logical counter
// is the reference's too. Every engine configuration runs over a backend
// that blocks and reads a round as waves (TestNonBlockingEngineMatchesReference
// covers engines that walk in line), so their logical counters are
// identical among themselves; against
// the in-line run they check the same candidates over the same rounds and
// never read fewer blocks (they probe the whole round where the walk stops
// at the budget). Swept over multi-probe {0, 2}, a generous and a truncating
// budget, one and four hash partitions, and both bucket layouts.
func TestWaveOptionMatrix(t *testing.T) {
	configs := []struct {
		name       string
		eng        ioengine.Options // Depth 0: no engine attached
		cacheBytes int64
		readahead  int
	}{
		{name: "no engine"},
		{name: "cache only", eng: ioengine.Options{Depth: 16}, cacheBytes: 64 << 20},
		{name: "engine only", eng: ioengine.Options{Depth: 4}},
		{name: "cache+engine+readahead", eng: ioengine.Options{Depth: 8}, cacheBytes: 64 << 20, readahead: 2},
		{name: "engine+retries", eng: ioengine.Options{Depth: 8, Retries: 2}},
	}
	const k = 5
	for _, lay := range bucketLayouts() {
		d, ix, _ := testSetup(t, 2000, 1000, lay.opts)
		for _, sigma := range []int{1000, 2} {
			for _, mp := range []int{0, 2} {
				kn := ladder.Knobs{K: k, Budget: sigma * ix.params.L, MultiProbe: mp}
				t.Run(fmt.Sprintf("%s/sigma%d/mp%d", lay.name, sigma, mp), func(t *testing.T) {
					for _, parts := range []int{1, 4} {
						t.Run(fmt.Sprintf("parts%d", parts), func(t *testing.T) {
							ix.SetPartitions(parts)
							if lay.name == "chained" && !probesChain(t, ix, d.Queries, kn) {
								t.Fatal("no probed slot names a chain; fixture is vacuous")
							}
							ref := ix.NewSearcher()
							want := make([][]ann.Neighbor, len(d.Queries))
							refSt := make([]Stats, len(d.Queries))
							for qi, q := range d.Queries {
								res, st, err := ref.Run(context.Background(), q, kn, nil)
								if err != nil {
									t.Fatal(err)
								}
								want[qi], refSt[qi] = res.Neighbors, st
							}
							// Per-query logical stats of the first engine
							// configuration.
							var batched []Stats
							truncated := false
							for _, cfg := range configs {
								view, engine := ix, cfg.eng.Depth > 0
								if engine {
									view = blockingEngine(t, ix, cfg.eng, cfg.cacheBytes, cfg.readahead)
								}
								seen := len(batched) > 0
								ws := view.NewWaveSearcher()
								physical := 0
								for qi, q := range d.Queries {
									got, st, err := ws.Run(context.Background(), q, kn, nil)
									if err != nil {
										t.Fatal(err)
									}
									// In line the run is held to the reference's
									// counters, which are then the in-line run's.
									wantSt := refSt[qi]
									if engine {
										if !seen {
											batched = append(batched, logicalStats(st))
										}
										wantSt = batched[qi]
										if in := refSt[qi]; in.Radii != st.Radii || in.Checked != st.Checked || in.Duplicates != st.Duplicates || in.IOs() > st.IOs() {
											t.Fatalf("%s query %d: not the in-line run's rounds and checks, or fewer blocks\nin line: %+v\ngot:     %+v", cfg.name, qi, in, st)
										}
									}
									compareRuns(t, cfg.name, qi, want[qi], got.Neighbors, wantSt, st, cfg.cacheBytes > 0)
									entries := st.Checked + st.Duplicates + st.FPRejected
									if entries > st.EntriesScanned {
										t.Fatalf("%s query %d: entry accounting broken: %+v", cfg.name, qi, st)
									}
									truncated = truncated || entries < st.EntriesScanned
									if !engine && (st.PhysicalReads != 0 || st.CoalescedReads != 0 || st.DedupedReads != 0) {
										t.Fatalf("query %d: engine counters without an engine: %+v", qi, st)
									}
									physical += st.PhysicalReads
								}
								// With an engine the rounds (multi-probe included) go
								// out as vectored waves: physical reads are issued.
								if engine && physical == 0 {
									t.Errorf("%s: no physical reads reported through the engine", cfg.name)
								}
							}
							// A partition that is done leaves its later candidates
							// unverified too, so only with one partition does every
							// short count mean the budget cut a round.
							if sigma == 2 && !truncated {
								t.Error("the truncating budget cut no round short")
							}
							if sigma != 2 && parts == 1 && truncated {
								t.Error("the generous budget cut a round short")
							}
						})
					}
				})
			}
		}
	}
}

// compareRuns asserts neighbors (IDs and distances), logical stats, and the
// engine-path accounting invariants.
func compareRuns(t *testing.T, which string, qi int, want, got []ann.Neighbor, wantSt, gotSt Stats, cached bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s query %d: %d vs %d neighbors", which, qi, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s query %d rank %d: %+v vs %+v", which, qi, i, want[i], got[i])
		}
	}
	if w, g := logicalStats(wantSt), logicalStats(gotSt); w != g {
		t.Fatalf("%s query %d: logical stats diverged\nwant: %+v\ngot:  %+v", which, qi, w, g)
	}
	if cached {
		// One cache outcome per block read, exactly as on the serial path.
		if want := gotSt.IOs(); gotSt.CacheHits+gotSt.CacheMisses != want {
			t.Fatalf("%s query %d: cache outcomes %d+%d do not cover %d block reads",
				which, qi, gotSt.CacheHits, gotSt.CacheMisses, want)
		}
	} else if gotSt.CacheHits != 0 || gotSt.CacheMisses != 0 {
		t.Fatalf("%s query %d: uncached run reported cache counters: %+v", which, qi, gotSt)
	}
}

// TestEngineAttachedAfterSearcher: AttachIOEngine's contract is "attach
// before issuing queries", not "before creating searchers" — a searcher
// built first must route its next query through the late engine (readahead
// included) instead of panicking or bypassing it, and, the engine's backend
// blocking, read its rounds as vectored waves rather than walking them in
// line.
func TestEngineAttachedAfterSearcher(t *testing.T) {
	d, ix, _ := testSetup(t, 1000, 8, DefaultOptions())
	clone, _ := faultyCopy(t, ix, faultinject.Schedule{SlowRead: 1, SlowDelay: slowRead})
	ps := clone.NewWaveSearcher()
	cache, err := blockcache.New(1<<20, blockcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ioengine.New(clone.store, ioengine.Options{Depth: 8, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	tipBlocking(t, eng)
	clone.AttachIOEngine(eng, 2)
	tr := telemetry.New(telemetry.Config{SampleRate: 1}).StartTrace()
	if _, _, err := ps.Run(context.Background(), d.Queries[0], ladder.Knobs{K: 1, Trace: tr}, nil); err != nil {
		t.Fatalf("search after late engine attach: %v", err)
	}
	if eng.Counters().Reads == 0 {
		t.Error("late-attached engine saw no traffic")
	}
	if !slices.ContainsFunc(tr.Spans(), func(sp telemetry.Span) bool { return sp.Stage == telemetry.StageIOWait }) {
		t.Error("after a late engine attach the searcher still walks its rounds in line: no wave span")
	}
}

// TestVectoredReadaheadAgrees: engine-attached readahead (vectored prefetch
// waves), which runs while the engine's backend blocks, must leave answers
// identical to the plain index and actually prefetch on multi-round
// ladders.
func TestVectoredReadaheadAgrees(t *testing.T) {
	d, ix, _ := testSetup(t, 2000, 8, DefaultOptions())
	plain := ix.NewSearcher()
	vec := blockingEngine(t, ix, ioengine.Options{Depth: 16}, 64<<20, 4)
	vecSeq := vec.NewSearcher()
	var agg Stats
	for qi, q := range d.Queries {
		want, _, err := plain.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := vecSeq.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Neighbors) != len(got.Neighbors) {
			t.Fatalf("query %d: neighbor count differs with vectored readahead", qi)
		}
		for i := range want.Neighbors {
			if want.Neighbors[i] != got.Neighbors[i] {
				t.Fatalf("query %d rank %d differs with vectored readahead", qi, i)
			}
		}
		agg.Radii += st.Radii
		agg.PrefetchedBlocks += st.PrefetchedBlocks
		agg.CacheHits += st.CacheHits
	}
	if agg.Radii <= len(d.Queries) {
		t.Skip("ladder ended after one round; no readahead window at this scale")
	}
	if agg.PrefetchedBlocks == 0 {
		t.Error("multi-round queries prefetched nothing through the engine")
	}
	if agg.CacheHits == 0 {
		t.Error("vectored readahead produced no demand hits on a cold cache")
	}
}

// TestVectoredConcurrentSearchersRace: many WaveSearchers sharing one
// engine (depth bound, cache) must stay correct under the
// race detector and agree with the serial reference.
func TestVectoredConcurrentSearchersRace(t *testing.T) {
	d, ix, _ := testSetup(t, 2000, 8, DefaultOptions())
	plain := ix.NewSearcher()
	wantRes := make([][]uint32, len(d.Queries))
	for qi, q := range d.Queries {
		res, _, err := plain.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range res.Neighbors {
			wantRes[qi] = append(wantRes[qi], nb.ID)
		}
	}
	vec := engineAttached(t, ix, 8, 64<<20, 0)
	const searchers = 4
	var wg sync.WaitGroup
	errs := make(chan error, searchers)
	for w := 0; w < searchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps := vec.NewWaveSearcher()
			for qi, q := range d.Queries {
				res, st, err := ps.SearchContext(context.Background(), q, 1)
				if err != nil {
					errs <- err
					return
				}
				if st.CacheHits+st.CacheMisses != st.TableIOs+st.BucketIOs {
					errs <- fmt.Errorf("query %d: cache outcomes %d+%d do not cover %d logical reads",
						qi, st.CacheHits, st.CacheMisses, st.TableIOs+st.BucketIOs)
					return
				}
				for i, id := range wantRes[qi] {
					if res.Neighbors[i].ID != id {
						errs <- fmt.Errorf("query %d: neighbor %d diverged under shared engine", qi, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentSearchersOnSlowDevice: on a device-timed backend, where
// every wave fans out to helper goroutines, eight concurrent searchers over
// the same queries each return the neighbors and logical stats of a lone
// searcher, and no query reports more backend, coalesced and deduped reads
// than its logical N_IO.
func TestConcurrentSearchersOnSlowDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing test")
	}
	d, ix, _ := testSetup(t, 2000, 8, DefaultOptions())
	// ~14µs per read: slow enough to overlap, fast enough for a test.
	wall, _ := wallIndex(t, ix, d.Vectors, iosim.CSSD, 0.1)
	eng, err := ioengine.New(wall.store, ioengine.Options{Depth: 32})
	if err != nil {
		t.Fatal(err)
	}
	tipBlocking(t, eng)
	wall.AttachIOEngine(eng, 0)
	queries := d.Queries[:5]
	type answer struct {
		res ann.Result
		st  Stats
	}
	lone := make([]answer, len(queries))
	ps := wall.NewWaveSearcher()
	for qi, q := range queries {
		res, st, err := ps.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		lone[qi] = answer{res, st}
	}
	const searchers = 8
	var wg sync.WaitGroup
	for w := 0; w < searchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps := wall.NewWaveSearcher()
			// Everyone walks the same queries: maximal overlap.
			for qi, q := range queries {
				res, st, err := ps.Search(q, 1)
				if err != nil {
					t.Error(err)
					return
				}
				want := lone[qi]
				if !slices.Equal(res.Neighbors, want.res.Neighbors) {
					t.Errorf("query %d: neighbors diverged under concurrency", qi)
				}
				if w, g := logicalStats(want.st), logicalStats(st); w != g {
					t.Errorf("query %d: logical stats diverged\nwant: %+v\ngot:  %+v", qi, w, g)
				}
				if st.PhysicalReads+st.CoalescedReads+st.DedupedReads > st.IOs() {
					t.Errorf("query %d: engine counters exceed N_IO: %+v", qi, st)
				}
			}
		}()
	}
	wg.Wait()
}

// wallIndex reloads ix onto a store timed like the given device (scaled), so
// queue-depth effects show up on the wall clock.
func wallIndex(t testing.TB, ix *Index, data [][]float32, spec iosim.DeviceSpec, scale float64) (*Index, *iosim.WallBackend) {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wall, err := iosim.NewWallBackend(blockstore.NewMemBackend(), spec, scale)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), data, blockstore.NewWithBackend(wall))
	if err != nil {
		t.Fatal(err)
	}
	return loaded, wall
}

// TestQueueDepthSpeedsUpSimulatedDevice is the wall-clock acceptance check
// in miniature: on a cSSD-profile backend, the wave searcher through the
// engine at QD=32 must beat QD=1 by well over the required 25%.
func TestQueueDepthSpeedsUpSimulatedDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing test")
	}
	d, ix, _ := testSetup(t, 2000, 8, DefaultOptions())
	// Scale the cSSD's 139µs service time down to ~14µs to keep the test
	// fast; the queue-depth ratio is scale-invariant.
	const scale = 0.1
	run := func(depth int) time.Duration {
		wall, _ := wallIndex(t, ix, d.Vectors, iosim.CSSD, scale)
		eng, err := ioengine.New(wall.store, ioengine.Options{Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		wall.AttachIOEngine(eng, 0)
		ps := wall.NewWaveSearcher()
		start := time.Now()
		for _, q := range d.Queries {
			if _, _, err := ps.Search(q, 1); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	qd1 := run(1)
	qd32 := run(32)
	t.Logf("QD=1: %v, QD=32: %v (%.1fx)", qd1, qd32, float64(qd1)/float64(qd32))
	if float64(qd32)*1.25 > float64(qd1) {
		t.Errorf("QD=32 (%v) not >=25%% faster than QD=1 (%v) on the simulated cSSD", qd32, qd1)
	}
}

// BenchmarkParallelSearcherQD is the Table 2 analogue on the wall clock: the
// same wave searcher, same queries, same simulated cSSD — only the I/O
// engine's queue depth changes.
func BenchmarkParallelSearcherQD(b *testing.B) {
	d, _, ix := benchSetup(b)
	for _, depth := range []int{1, 32} {
		b.Run(fmt.Sprintf("QD%d", depth), func(b *testing.B) {
			wall, backend := wallIndex(b, ix, d.Vectors, iosim.CSSD, 0.1)
			eng, err := ioengine.New(wall.store, ioengine.Options{Depth: depth})
			if err != nil {
				b.Fatal(err)
			}
			wall.AttachIOEngine(eng, 0)
			ps := wall.NewWaveSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ps.Search(d.Queries[i%d.NQ()], 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if ops := backend.Ops(); ops > 0 {
				b.ReportMetric(float64(backend.Reads())/float64(ops), "blocks/op")
			}
		})
	}
}
