package diskindex

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/costmodel"
	"e2lshos/internal/dataset"
	"e2lshos/internal/iosim"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
	"e2lshos/internal/memindex"
	"e2lshos/internal/sched"
)

// testSetup builds a dataset, derives params and returns both the on-storage
// index and its in-memory reference twin (same seed, same families).
func testSetup(t *testing.T, n int, sigma float64, opts Options) (*dataset.Dataset, *Index, *memindex.Index) {
	t.Helper()
	d, err := dataset.Generate(dataset.Spec{
		Name: "disk-test", N: n, Queries: 15, Dim: 24,
		Clusters: 8, Spread: 0.05, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lsh.DefaultConfig()
	cfg.Rho = 0.25
	cfg.Sigma = sigma
	rmin := dataset.NNDistanceQuantile(d, 0.05, 15, 1)
	if rmin <= 0 {
		rmin = 0.1
	}
	p, err := lsh.Derive(cfg, d.N(), d.Dim, rmin, lsh.MaxRadius(d.MaxAbs(), d.Dim))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d.Vectors, p, opts, blockstore.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	mix, err := memindex.Build(d.Vectors, p, memindex.Options{ShareProjections: true, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return d, ix, mix
}

func TestBuildValidation(t *testing.T) {
	p, _ := lsh.Derive(lsh.DefaultConfig(), 10, 4, 1, 10)
	store := blockstore.NewMem()
	if _, err := Build(nil, p, DefaultOptions(), store); err == nil {
		t.Error("empty data accepted")
	}
	data := make([][]float32, 10)
	for i := range data {
		data[i] = make([]float32, 4)
	}
	if _, err := Build(data, p, DefaultOptions(), nil); err == nil {
		t.Error("nil store accepted")
	}
	bad := DefaultOptions()
	bad.TableBits = 40
	if _, err := Build(data, p, bad, store); err == nil {
		t.Error("oversized table bits accepted")
	}
}

func TestEntriesPerBlockMatchesPaper(t *testing.T) {
	// §5.1: (512 − 16)/5 = 99 objects per block.
	if entriesPerBlock != 99 {
		t.Errorf("entries per block = %d, want 99", entriesPerBlock)
	}
}

func TestPackUnpackEntry(t *testing.T) {
	_, ix, _ := testSetup(t, 500, 4, DefaultOptions())
	for _, c := range []struct{ id, fp uint32 }{
		{0, 0}, {499, 0}, {0, 1<<(32-ix.u) - 1}, {257, 12345 & (1<<(32-ix.u) - 1)},
	} {
		id, fp := ix.unpackEntry(ix.packEntry(c.id, c.fp))
		if id != c.id || fp != c.fp {
			t.Errorf("pack/unpack (%d,%d) -> (%d,%d)", c.id, c.fp, id, fp)
		}
	}
}

func TestUint40RoundTrip(t *testing.T) {
	buf := make([]byte, 5)
	for _, v := range []uint64{0, 1, 1<<40 - 1, 0x1234567890} {
		putUint40(buf, v)
		if got := getUint40(buf); got != v&(1<<40-1) {
			t.Errorf("uint40 round trip of %x: got %x", v, got)
		}
	}
}

func TestSyncSearcherMatchesMemIndexExactly(t *testing.T) {
	// With a generous candidate budget (no truncation), the on-storage index
	// must return byte-identical results to the in-memory reference: same
	// neighbors, same distances, same candidate counts.
	d, ix, mix := testSetup(t, 2000, 1000, DefaultOptions())
	ds := ix.NewSearcher()
	ms := mix.NewSearcher()
	for qi, q := range d.Queries {
		dres, dst, err := ds.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		mres, mst := ms.Search(q, 5)
		if len(dres.Neighbors) != len(mres.Neighbors) {
			t.Fatalf("query %d: %d vs %d neighbors", qi, len(dres.Neighbors), len(mres.Neighbors))
		}
		for i := range dres.Neighbors {
			if dres.Neighbors[i] != mres.Neighbors[i] {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, i, dres.Neighbors[i], mres.Neighbors[i])
			}
		}
		if dst.Checked != mst.Checked {
			t.Fatalf("query %d: checked %d vs %d", qi, dst.Checked, mst.Checked)
		}
		if dst.Radii != mst.Radii {
			t.Fatalf("query %d: radii %d vs %d", qi, dst.Radii, mst.Radii)
		}
	}
}

func TestFingerprintsRejectFalseCollisions(t *testing.T) {
	// With u well below 32, u-bit collisions that are not 32-bit collisions
	// must be rejected by fingerprints rather than checked.
	opts := DefaultOptions()
	opts.TableBits = 8 // tiny table: lots of u-bit collisions
	d, ix, mix := testSetup(t, 2000, 1000, opts)
	ds := ix.NewSearcher()
	ms := mix.NewSearcher()
	var rejected int
	for qi, q := range d.Queries {
		dres, dst, err := ds.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		mres, mst := ms.Search(q, 1)
		rejected += dst.FPRejected
		// Checked counts must still match the 32-bit reference exactly.
		if dst.Checked != mst.Checked {
			t.Fatalf("query %d: checked %d vs %d despite fingerprints", qi, dst.Checked, mst.Checked)
		}
		if len(dres.Neighbors) != len(mres.Neighbors) {
			t.Fatalf("query %d: result size differs", qi)
		}
	}
	if rejected == 0 {
		t.Error("u=8 produced no fingerprint rejections; fingerprint path untested")
	}
}

func TestIOAccounting(t *testing.T) {
	d, ix, _ := testSetup(t, 2000, 4, DefaultOptions())
	s := ix.NewSearcher()
	for _, q := range d.Queries {
		_, st, err := s.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st.TableIOs != st.NonEmptyProbes {
			t.Fatalf("table IOs %d != non-empty probes %d", st.TableIOs, st.NonEmptyProbes)
		}
		if st.BucketIOs < st.NonEmptyProbes {
			t.Fatalf("bucket IOs %d below non-empty probes %d", st.BucketIOs, st.NonEmptyProbes)
		}
		if st.IOs() != st.TableIOs+st.BucketIOs {
			t.Fatal("IOs() mismatch")
		}
		if st.Checked+st.Duplicates+st.FPRejected != st.EntriesScanned {
			t.Fatalf("entry accounting broken: %+v", st)
		}
	}
}

// TestWaveEntryAccounting extends the counter invariant to the serving
// searcher: every decoded entry is scanned, and every scanned entry is
// checked, a duplicate or a fingerprint reject — unless the budget cut the
// round short, which leaves the fetched remainder scanned only. With a tiny
// table (lots of u-bit collisions) the wave decode must reject by
// fingerprint exactly as often as the reference does on an untruncated run.
func TestWaveEntryAccounting(t *testing.T) {
	opts := DefaultOptions()
	opts.TableBits = 8
	for _, sigma := range []float64{1000, 2} {
		d, ix, _ := testSetup(t, 2000, sigma, opts)
		ref, ws := ix.NewSearcher(), ix.NewWaveSearcher()
		rejected := 0
		for qi, q := range d.Queries {
			_, rst, err := ref.Search(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := ws.Search(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			entries := st.Checked + st.Duplicates + st.FPRejected
			if entries > st.EntriesScanned {
				t.Fatalf("sigma %g query %d: entry accounting broken: %+v", sigma, qi, st)
			}
			if sigma == 1000 && (entries != st.EntriesScanned || st != rst) {
				t.Fatalf("query %d: untruncated wave stats differ from the reference\nwave: %+v\nref:  %+v", qi, st, rst)
			}
			rejected += st.FPRejected
		}
		if rejected == 0 {
			t.Errorf("sigma %g: u=8 produced no fingerprint rejections on the wave path", sigma)
		}
	}
}

func TestChainTraversal(t *testing.T) {
	// A tiny u forces buckets far larger than one block, exercising chains.
	opts := DefaultOptions()
	opts.TableBits = 6
	d, ix, mix := testSetup(t, 3000, 100000, opts)
	s := ix.NewSearcher()
	ms := mix.NewSearcher()
	sawChain := false
	for _, q := range d.Queries {
		_, st, err := s.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st.BucketIOs > st.NonEmptyProbes {
			sawChain = true
		}
		_, mst := ms.Search(q, 1)
		if st.Checked != mst.Checked {
			t.Fatalf("chained search diverges from reference: %d vs %d", st.Checked, mst.Checked)
		}
	}
	if !sawChain {
		t.Error("no bucket chains traversed; chain path untested")
	}
}

// TestAsyncMatchesServingSearcher: a virtual-time query runs the serving
// WaveSearcher's ladder, so at any budget, k and scheduling mode its
// neighbors are bitwise the reference Searcher's and its work counters —
// reads included — are exactly those of a WaveSearcher with an ioengine
// attached, under the same knobs, and the engine's I/O count is those reads.
func TestAsyncMatchesServingSearcher(t *testing.T) {
	ctx := context.Background()
	type schedMode struct {
		name string
		cpus int
		sync bool
	}
	modes := []schedMode{{"sync", 1, true}, {"async1", 1, false}, {"async2", 2, false}}
	d, ix, _ := testSetup(t, 2000, 1000, DefaultOptions())
	// The scheduler issues a round whole, as a serving searcher does
	// with an engine attached, whatever its queue depth; in line it
	// would walk each bucket and stop at the budget.
	ref, wave := ix.NewSearcher(), engineAttached(t, ix, 4, 0, 0).NewWaveSearcher()
	for _, budget := range []int{0, 2, 8, ix.Params().S / 2} {
		for _, k := range []int{1, 5} {
			kn := ladder.Knobs{K: k, Budget: budget}
			for _, m := range modes {
				name := fmt.Sprintf("budget=%d/k=%d/%s", budget, k, m.name)
				pool, err := iosim.NewPool(iosim.CSSD, 2)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := sched.New(sched.Config{CPUs: m.cpus, Iface: iosim.IOUring, Pool: pool, Store: ix.Store(), Sync: m.sync})
				if err != nil {
					t.Fatal(err)
				}
				results := make([]AsyncResult, d.NQ())
				rep, err := eng.RunBatch(d.NQ(), 4, ix.AsyncQueryFunc(costmodel.Default(), d.Queries, k, budget, results))
				if err != nil {
					t.Fatal(err)
				}
				var blocks int64
				for qi, q := range d.Queries {
					want, _, err := ref.Run(ctx, q, kn, nil)
					if err != nil {
						t.Fatal(err)
					}
					_, wst, err := wave.Run(ctx, q, kn, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, gst := results[qi].Result, results[qi].Stats
					if fmt.Sprint(got.Neighbors) != fmt.Sprint(want.Neighbors) {
						t.Fatalf("%s query %d:\n async     %v\n reference %v", name, qi, got.Neighbors, want.Neighbors)
					}
					type counters struct {
						Radii, Probes, NonEmptyProbes, EntriesScanned, Checked, Duplicates, TableIOs, BucketIOs int
					}
					of := func(st Stats) counters {
						return counters{st.Radii, st.Probes, st.NonEmptyProbes, st.EntriesScanned,
							st.Checked, st.Duplicates, st.TableIOs, st.BucketIOs}
					}
					if of(gst) != of(wst) {
						t.Fatalf("%s query %d:\n async %+v\n wave  %+v", name, qi, of(gst), of(wst))
					}
					blocks += int64(gst.IOs())
				}
				if rep.IOs != blocks {
					t.Fatalf("%s: engine read %d blocks, the queries %d", name, rep.IOs, blocks)
				}
			}
		}
	}
}

func TestAsyncDeterministic(t *testing.T) {
	d, ix, _ := testSetup(t, 1500, 8, DefaultOptions())
	run := func() []AsyncResult {
		pool, _ := iosim.NewPool(iosim.ESSD, 2)
		eng, err := sched.New(sched.Config{CPUs: 2, Iface: iosim.SPDK, Pool: pool, Store: ix.Store()})
		if err != nil {
			t.Fatal(err)
		}
		results := make([]AsyncResult, d.NQ())
		if _, err := eng.RunBatch(d.NQ(), 8, ix.AsyncQueryFunc(costmodel.Default(), d.Queries, 3, 0, results)); err != nil {
			t.Fatal(err)
		}
		return results
	}
	r1, r2 := run(), run()
	for qi := range r1 {
		if r1[qi].Stats != r2[qi].Stats {
			t.Fatalf("query %d stats differ across runs", qi)
		}
		if len(r1[qi].Result.Neighbors) != len(r2[qi].Result.Neighbors) {
			t.Fatalf("query %d results differ across runs", qi)
		}
	}
}

func TestAsyncAccuracy(t *testing.T) {
	d, ix, _ := testSetup(t, 3000, 16, DefaultOptions())
	gt := dataset.GroundTruth(d, 1)
	pool, _ := iosim.NewPool(iosim.CSSD, 1)
	eng, err := sched.New(sched.Config{CPUs: 1, Iface: iosim.IOUring, Pool: pool, Store: ix.Store()})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]AsyncResult, d.NQ())
	if _, err := eng.RunBatch(d.NQ(), 8, ix.AsyncQueryFunc(costmodel.Default(), d.Queries, 1, 0, results)); err != nil {
		t.Fatal(err)
	}
	var sum float64
	n := 0
	for qi := range results {
		if len(results[qi].Result.Neighbors) == 0 {
			continue
		}
		sum += ann.OverallRatio(results[qi].Result, gt[qi], 1)
		n++
	}
	if n < d.NQ()*8/10 {
		t.Fatalf("async answered only %d/%d queries", n, d.NQ())
	}
	if avg := sum / float64(n); avg > 1.5 {
		t.Errorf("async ratio %v too weak", avg)
	}
}

func TestWaveSearcherMatchesSync(t *testing.T) {
	d, ix, _ := testSetup(t, 2000, 1000, DefaultOptions())
	sync := ix.NewSearcher()
	par := ix.NewWaveSearcher()
	for qi, q := range d.Queries {
		want, wantSt, err := sync.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err := par.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Neighbors) != len(want.Neighbors) {
			t.Fatalf("query %d: wave %d neighbors, sync %d", qi, len(got.Neighbors), len(want.Neighbors))
		}
		for i := range want.Neighbors {
			if got.Neighbors[i] != want.Neighbors[i] {
				t.Fatalf("query %d rank %d differs", qi, i)
			}
		}
		if gotSt.Checked != wantSt.Checked {
			t.Fatalf("query %d: wave checked %d, sync %d", qi, gotSt.Checked, wantSt.Checked)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d, ix, _ := testSetup(t, 1500, 8, DefaultOptions())
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, d.Vectors, blockstore.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := ix.NewSearcher(), loaded.NewSearcher()
	for _, q := range d.Queries {
		r1, st1, err := s1.Search(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		r2, st2, err := s2.Search(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if st1 != st2 {
			t.Fatalf("stats differ after reload: %+v vs %+v", st1, st2)
		}
		for i := range r1.Neighbors {
			if r1.Neighbors[i] != r2.Neighbors[i] {
				t.Fatal("results differ after reload")
			}
		}
	}
}

func TestSaveLoadFileBacked(t *testing.T) {
	// Persist to a file, reload onto a file-backed store: the full
	// production path.
	d, ix, _ := testSetup(t, 800, 8, DefaultOptions())
	dir := t.TempDir()
	idxPath := dir + "/index.e2ix"
	if err := ix.SaveFile(idxPath); err != nil {
		t.Fatal(err)
	}
	store, f, err := blockstore.OpenFile(dir + "/blocks")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := LoadFile(idxPath, d.Vectors, store)
	if err != nil {
		t.Fatal(err)
	}
	par := loaded.NewWaveSearcher()
	res, _, err := par.Search(d.Queries[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) == 0 {
		t.Fatal("file-backed search found nothing")
	}
}

func TestLoadRejectsWrongData(t *testing.T) {
	d, ix, _ := testSetup(t, 500, 4, DefaultOptions())
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, d.Vectors[:100], blockstore.NewMem()); err == nil {
		t.Error("load with mismatched data size accepted")
	}
	if _, err := Load(bytes.NewReader([]byte("XXXXjunk")), d.Vectors, blockstore.NewMem()); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestSizeAccounting(t *testing.T) {
	_, ix, mix := testSetup(t, 3000, 4, DefaultOptions())
	if ix.StorageBytes() <= 0 {
		t.Fatal("storage bytes not positive")
	}
	if ix.MemBytes() <= 0 {
		t.Fatal("mem bytes not positive")
	}
	// The DRAM metadata must be far smaller than the on-storage index
	// (Table 6's central claim).
	if ix.MemBytes()*2 > ix.StorageBytes() {
		t.Errorf("index mem %d not small vs storage %d", ix.MemBytes(), ix.StorageBytes())
	}
	// And the storage index should be at least as large as the in-memory
	// reference index (5-byte entries + block slack vs 4-byte ids).
	if ix.StorageBytes() < mix.IndexBytes()/2 {
		t.Errorf("storage bytes %d implausibly small vs memindex %d", ix.StorageBytes(), mix.IndexBytes())
	}
}

func TestAutoTableBits(t *testing.T) {
	cases := []struct {
		n    int
		want uint
	}{
		{100, 8}, {4096, 9}, {1 << 20, 17}, {1 << 30, 26},
	}
	for _, c := range cases {
		if got := autoTableBits(c.n); got != c.want {
			t.Errorf("autoTableBits(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestStoreBlocksConsistent(t *testing.T) {
	// Every occupied bucket must resolve to a valid chain whose entries all
	// carry the right u-bit index.
	_, ix, _ := testSetup(t, 1000, 4, DefaultOptions())
	buf := make([]byte, blockstore.BlockSize)
	p := ix.params
	for r := 0; r < p.R(); r++ {
		for l := 0; l < p.L; l++ {
			for idx := uint32(0); idx < 1<<ix.u; idx++ {
				if !ix.isOccupied(r, l, idx) {
					continue
				}
				blk, off := ix.tableEntryBlock(r, l, idx)
				if err := ix.store.ReadBlock(blk, buf); err != nil {
					t.Fatal(err)
				}
				sl := decodeSlot(getUint64(buf[off : off+8]))
				if sl.addr == blockstore.Nil {
					t.Fatalf("occupied bucket (%d,%d,%d) has nil head", r, l, idx)
				}
				total := 0
				for w := sl; w.addr != blockstore.Nil; {
					if err := ix.readBlock(w.addr, buf, nil); err != nil {
						t.Fatal(err)
					}
					next, lo, hi := w.span(buf)
					if hi == lo {
						t.Fatalf("empty block in chain of bucket (%d,%d,%d)", r, l, idx)
					}
					total += hi - lo
					w = slot{addr: next}
				}
				if total == 0 {
					t.Fatalf("occupied bucket (%d,%d,%d) holds no entries", r, l, idx)
				}
			}
		}
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}
