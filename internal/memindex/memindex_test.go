package memindex

import (
	"math"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/dataset"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
)

// testSetup builds a small clustered dataset, derives parameters and builds
// an index. Shared by most tests.
func testSetup(t *testing.T, n int, share bool) (*dataset.Dataset, *Index) {
	t.Helper()
	d, err := dataset.Generate(dataset.Spec{
		Name: "test", N: n, Queries: 20, Dim: 24,
		Clusters: 8, Spread: 0.05, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildFor(t, d, share, 4.0)
	return d, ix
}

func buildFor(t *testing.T, d *dataset.Dataset, share bool, sigma float64) *Index {
	t.Helper()
	cfg := lsh.DefaultConfig()
	cfg.Rho = 0.25
	cfg.Sigma = sigma
	rmin := dataset.NNDistanceQuantile(d, 0.05, 20, 1)
	if rmin <= 0 {
		rmin = 0.1
	}
	rmax := lsh.MaxRadius(d.MaxAbs(), d.Dim)
	p, err := lsh.Derive(cfg, d.N(), d.Dim, rmin, rmax)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.ShareProjections = share
	ix, err := Build(d.Vectors, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildValidation(t *testing.T) {
	p, _ := lsh.Derive(lsh.DefaultConfig(), 10, 4, 1, 10)
	if _, err := Build(nil, p, DefaultOptions()); err == nil {
		t.Error("empty data accepted")
	}
	data := make([][]float32, 5)
	for i := range data {
		data[i] = make([]float32, 4)
	}
	if _, err := Build(data, p, DefaultOptions()); err == nil {
		t.Error("n mismatch accepted")
	}
	p10, _ := lsh.Derive(lsh.DefaultConfig(), 5, 8, 1, 10)
	if _, err := Build(data, p10, DefaultOptions()); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestSearchFindsNearNeighbors(t *testing.T) {
	d, ix := testSetup(t, 2000, true)
	gt := dataset.GroundTruth(d, 1)
	s := ix.NewSearcher()
	var ratios float64
	found := 0
	for qi, q := range d.Queries {
		res, _ := s.Search(q, 1)
		if len(res.Neighbors) == 0 {
			continue
		}
		found++
		ratios += ann.OverallRatio(res, gt[qi], 1)
	}
	if found < len(d.Queries)*8/10 {
		t.Fatalf("found neighbors for only %d/%d queries", found, len(d.Queries))
	}
	avg := ratios / float64(found)
	// c=2 ANNS guarantees ratio <= c^2 = 4 w.h.p.; empirically on clustered
	// data it should be far tighter.
	if avg > 1.5 {
		t.Errorf("average overall ratio %v too weak", avg)
	}
}

func TestSearchExactSelfQueries(t *testing.T) {
	// Querying with database points must find the point itself (distance 0).
	d, ix := testSetup(t, 1000, true)
	s := ix.NewSearcher()
	hits := 0
	for i := 0; i < 20; i++ {
		res, _ := s.Search(d.Vectors[i*37], 1)
		if len(res.Neighbors) > 0 && res.Neighbors[0].Dist == 0 {
			hits++
		}
	}
	if hits < 18 {
		t.Errorf("self-queries found exact point only %d/20 times", hits)
	}
}

func TestSearchTopKSorted(t *testing.T) {
	d, ix := testSetup(t, 1500, true)
	s := ix.NewSearcher()
	for _, q := range d.Queries[:10] {
		res, _ := s.Search(q, 10)
		for i := 1; i < len(res.Neighbors); i++ {
			if res.Neighbors[i].Dist < res.Neighbors[i-1].Dist {
				t.Fatal("results not sorted by distance")
			}
		}
		seen := map[uint32]bool{}
		for _, nb := range res.Neighbors {
			if seen[nb.ID] {
				t.Fatal("duplicate neighbor returned")
			}
			seen[nb.ID] = true
		}
	}
}

func TestDeterministicAcrossBuilds(t *testing.T) {
	d, ix1 := testSetup(t, 800, true)
	ix2 := buildFor(t, d, true, 4.0)
	s1, s2 := ix1.NewSearcher(), ix2.NewSearcher()
	for _, q := range d.Queries {
		r1, st1 := s1.Search(q, 3)
		r2, st2 := s2.Search(q, 3)
		if len(r1.Neighbors) != len(r2.Neighbors) {
			t.Fatal("different result sizes across identical builds")
		}
		for i := range r1.Neighbors {
			if r1.Neighbors[i] != r2.Neighbors[i] {
				t.Fatal("different neighbors across identical builds")
			}
		}
		if st1 != st2 {
			t.Fatalf("different stats across identical builds: %+v vs %+v", st1, st2)
		}
	}
}

func TestSharedVsIndependentProjections(t *testing.T) {
	// Both modes must produce valid indexes with comparable accuracy.
	d, ixShared := testSetup(t, 1200, true)
	ixIndep := buildFor(t, d, false, 4.0)
	gt := dataset.GroundTruth(d, 1)
	for name, ix := range map[string]*Index{"shared": ixShared, "indep": ixIndep} {
		s := ix.NewSearcher()
		var sum float64
		n := 0
		for qi, q := range d.Queries {
			res, _ := s.Search(q, 1)
			if len(res.Neighbors) > 0 {
				sum += ann.OverallRatio(res, gt[qi], 1)
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s: no queries answered", name)
		}
		if avg := sum / float64(n); avg > 1.6 {
			t.Errorf("%s: weak ratio %v", name, avg)
		}
	}
}

func TestQueryStatsConsistency(t *testing.T) {
	d, ix := testSetup(t, 1500, true)
	s := ix.NewSearcher()
	p := ix.Params()
	for _, q := range d.Queries {
		_, st := s.Search(q, 1)
		if st.Radii < 1 || st.Radii > p.R() {
			t.Fatalf("radii %d out of [1,%d]", st.Radii, p.R())
		}
		if st.Probes > st.Radii*p.L {
			t.Fatalf("probes %d exceed radii*L=%d", st.Probes, st.Radii*p.L)
		}
		if st.NonEmptyProbes > st.Probes {
			t.Fatal("non-empty probes exceed probes")
		}
		if st.IOsAtInf != 2*st.NonEmptyProbes {
			t.Fatalf("IOsAtInf=%d, want 2*nonEmpty=%d", st.IOsAtInf, 2*st.NonEmptyProbes)
		}
		if st.Checked+st.Duplicates != st.EntriesScanned {
			t.Fatalf("checked(%d)+dups(%d) != scanned(%d)", st.Checked, st.Duplicates, st.EntriesScanned)
		}
	}
}

func TestCandidateBudgetRespected(t *testing.T) {
	d, _ := testSetup(t, 1500, true)
	ix := buildFor(t, d, true, 1.0) // sigma=1: S = L
	s := ix.NewSearcher()
	p := ix.Params()
	for _, q := range d.Queries {
		_, st := s.Search(q, 1)
		// Budget is per radius: checked <= S per radius.
		if st.Checked > p.S*st.Radii {
			t.Fatalf("checked %d exceeds budget %d over %d radii", st.Checked, p.S*st.Radii, st.Radii)
		}
	}
}

func TestLargerSigmaChecksMore(t *testing.T) {
	d, _ := testSetup(t, 1500, true)
	ixSmall := buildFor(t, d, true, 1.0)
	ixBig := buildFor(t, d, true, 50.0)
	var small, big ladder.Stats
	ss, sb := ixSmall.NewSearcher(), ixBig.NewSearcher()
	for _, q := range d.Queries {
		_, st := ss.Search(q, 1)
		small.Merge(st)
		_, st = sb.Search(q, 1)
		big.Merge(st)
	}
	if big.MeanChecked() < small.MeanChecked() {
		t.Errorf("sigma=50 checked %v < sigma=1 checked %v", big.MeanChecked(), small.MeanChecked())
	}
}

func TestBucketVisitObserver(t *testing.T) {
	d, ix := testSetup(t, 1000, true)
	s := ix.NewSearcher()
	var visits, entries int
	s.OnBucketVisit(func(size, read int) {
		visits++
		entries += read
		if read > size {
			t.Fatalf("read %d exceeds bucket size %d", read, size)
		}
		if read == 0 {
			t.Fatal("observer called with zero entries read")
		}
	})
	_, st := s.Search(d.Queries[0], 1)
	if visits != st.NonEmptyProbes {
		t.Errorf("observer saw %d visits, stats say %d", visits, st.NonEmptyProbes)
	}
	if entries != st.EntriesScanned {
		t.Errorf("observer saw %d entries, stats say %d", entries, st.EntriesScanned)
	}
}

func TestIndexBytesPositive(t *testing.T) {
	_, ix := testSetup(t, 500, true)
	b := ix.IndexBytes()
	p := ix.Params()
	// At least the id slabs: n*4 bytes per table.
	min := int64(500) * 4 * int64(p.L) * int64(p.R())
	if b < min {
		t.Errorf("IndexBytes %d below minimum %d", b, min)
	}
}

// TestStatsFoldOverBatch folds per-query stats over a batch the way the
// experiments do: every run stamps one query, so a merged Stats carries the
// batch size and its Mean* methods are per-query means.
func TestStatsFoldOverBatch(t *testing.T) {
	d, ix := testSetup(t, 1000, true)
	s := ix.NewSearcher()
	var acc ladder.Stats
	if acc.MeanRadii() != 0 || acc.MeanChecked() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	var radii, checked int
	for _, q := range d.Queries {
		_, st := s.Search(q, 1)
		if st.Queries != 1 {
			t.Fatalf("one query stamped Queries = %d", st.Queries)
		}
		radii += st.Radii
		checked += st.Checked
		acc.Merge(st)
	}
	nq := len(d.Queries)
	if acc.Queries != nq {
		t.Fatalf("Queries = %d after %d merges", acc.Queries, nq)
	}
	if got, want := acc.MeanRadii(), float64(radii)/float64(nq); got != want {
		t.Errorf("MeanRadii = %v, want %v", got, want)
	}
	if got, want := acc.MeanChecked(), float64(checked)/float64(nq); got != want {
		t.Errorf("MeanChecked = %v, want %v", got, want)
	}
}

func TestFreezeTable(t *testing.T) {
	hashes := []uint32{5, 3, 5, 3, 3, 9}
	tab := freezeTable(hashes)
	if len(tab.keys) != 3 {
		t.Fatalf("keys %v, want 3 buckets", tab.keys)
	}
	got3 := tab.bucket(3)
	if len(got3) != 3 {
		t.Fatalf("bucket(3) = %v, want 3 ids", got3)
	}
	for _, id := range got3 {
		if hashes[id] != 3 {
			t.Fatalf("bucket(3) contains id %d with hash %d", id, hashes[id])
		}
	}
	if got := tab.bucket(4); got != nil {
		t.Fatalf("bucket(4) = %v, want nil", got)
	}
	if got := tab.bucket(9); len(got) != 1 || got[0] != 5 {
		t.Fatalf("bucket(9) = %v, want [5]", got)
	}
}

func TestRadiiLadderTermination(t *testing.T) {
	// A query equal to a database point should terminate at an early radius,
	// not scan the whole ladder.
	d, ix := testSetup(t, 2000, true)
	s := ix.NewSearcher()
	var acc ladder.Stats
	for i := 0; i < 10; i++ {
		_, st := s.Search(d.Vectors[i*101], 1)
		acc.Merge(st)
	}
	if acc.MeanRadii() >= float64(ix.Params().R()) {
		t.Errorf("self queries searched all %d radii on average (%.1f)", ix.Params().R(), acc.MeanRadii())
	}
}

func TestAccuracyImprovesWithSigma(t *testing.T) {
	d, _ := testSetup(t, 3000, true)
	gt := dataset.GroundTruth(d, 1)
	ratioAt := func(sigma float64) float64 {
		ix := buildFor(t, d, true, sigma)
		s := ix.NewSearcher()
		var sum float64
		for qi, q := range d.Queries {
			res, _ := s.Search(q, 1)
			sum += ann.OverallRatio(res, gt[qi], 1)
		}
		return sum / float64(len(d.Queries))
	}
	loose := ratioAt(0.5)
	tight := ratioAt(64)
	if tight > loose+1e-9 {
		t.Errorf("accuracy did not improve with sigma: loose=%v tight=%v", loose, tight)
	}
	if math.IsNaN(loose) || math.IsNaN(tight) {
		t.Fatal("NaN ratios")
	}
}
