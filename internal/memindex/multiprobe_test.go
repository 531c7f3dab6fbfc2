package memindex

import (
	"context"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/dataset"
	"e2lshos/internal/ladder"
)

// searchMP runs one query with the given multi-probe count.
func searchMP(s *Searcher, q []float32, k, probes int) (ann.Result, ladder.Stats) {
	res, st, _ := s.Run(context.Background(), q, ladder.Knobs{K: k, MultiProbe: probes}, nil)
	return res, st
}

// A searcher that has served multi-probe queries answers a T=0 query exactly
// like one that never has: the knob travels with the query and leaves no
// residue.
func TestMultiProbeZeroMatchesClassic(t *testing.T) {
	d, ix := testSetup(t, 1500, true)
	classic := ix.NewSearcher()
	mp := ix.NewSearcher()
	for _, q := range d.Queries {
		searchMP(mp, q, 3, 4)
		r1, st1 := classic.Search(q, 3)
		r2, st2 := searchMP(mp, q, 3, 0)
		if st1 != st2 {
			t.Fatalf("T=0 multi-probe stats differ: %+v vs %+v", st1, st2)
		}
		for i := range r1.Neighbors {
			if r1.Neighbors[i] != r2.Neighbors[i] {
				t.Fatal("T=0 multi-probe results differ")
			}
		}
	}
}

func TestMultiProbeProbesMore(t *testing.T) {
	d, ix := testSetup(t, 1500, true)
	base := ix.NewSearcher()
	mp := ix.NewSearcher()
	var baseProbes, mpProbes int
	for _, q := range d.Queries {
		_, st := base.Search(q, 1)
		baseProbes += st.Probes
		_, st = searchMP(mp, q, 1, 4)
		mpProbes += st.Probes
	}
	if mpProbes <= baseProbes {
		t.Errorf("multi-probe probed %d buckets vs %d classic; expected more", mpProbes, baseProbes)
	}
}

func TestMultiProbeImprovesRecallAtTightBudget(t *testing.T) {
	// With a small index view (tiny budget) multi-probe should find at
	// least as many true neighbors as classic probing.
	d, err := dataset.Generate(dataset.Spec{
		Name: "mp", N: 4000, Queries: 30, Dim: 24,
		Clusters: 8, Spread: 0.08, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildFor(t, d, true, 8)
	gt := dataset.GroundTruth(d, 1)
	ratioFor := func(probes int) float64 {
		s := ix.NewSearcher()
		var sum float64
		for qi, q := range d.Queries {
			res, _ := searchMP(s, q, 1, probes)
			sum += ann.OverallRatio(res, gt[qi], 1)
		}
		return sum / float64(len(d.Queries))
	}
	classic := ratioFor(0)
	probed := ratioFor(8)
	if probed > classic+0.02 {
		t.Errorf("multi-probe ratio %v worse than classic %v", probed, classic)
	}
}

func TestMultiProbePanicsOnNegative(t *testing.T) {
	d, ix := testSetup(t, 200, true)
	defer func() {
		if recover() == nil {
			t.Fatal("negative multi-probe accepted")
		}
	}()
	searchMP(ix.NewSearcher(), d.Queries[0], 1, -1)
}
