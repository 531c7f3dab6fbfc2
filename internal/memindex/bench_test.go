package memindex

import (
	"context"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/dataset"
	"e2lshos/internal/lsh"
)

func benchIndex(b *testing.B, share bool) (*dataset.Dataset, *Index) {
	b.Helper()
	d, err := dataset.Generate(dataset.Spec{
		Name: "bench", N: 20000, Queries: 50, Dim: 64,
		Clusters: 16, Spread: 0.05, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := lsh.DefaultConfig()
	cfg.Rho = 0.25
	cfg.Sigma = 8
	p, err := lsh.Derive(cfg, d.N(), d.Dim, 0.3, lsh.MaxRadius(d.MaxAbs(), d.Dim))
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.ShareProjections = share
	ix, err := Build(d.Vectors, p, opts)
	if err != nil {
		b.Fatal(err)
	}
	return d, ix
}

func BenchmarkBuild20k(b *testing.B) {
	d, _ := benchIndex(b, true)
	p := lshParamsFor(b, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(d.Vectors, p, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildIndependentProjections is the DESIGN.md ablation: the cost
// of the original fully independent per-radius hash functions versus the
// shared-projection optimization (BenchmarkBuild20k).
func BenchmarkBuildIndependentProjections(b *testing.B) {
	d, _ := benchIndex(b, true)
	p := lshParamsFor(b, d)
	opts := DefaultOptions()
	opts.ShareProjections = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(d.Vectors, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func lshParamsFor(b testing.TB, d *dataset.Dataset) lsh.Params {
	b.Helper()
	cfg := lsh.DefaultConfig()
	cfg.Rho = 0.25
	cfg.Sigma = 8
	p, err := lsh.Derive(cfg, d.N(), d.Dim, 0.3, lsh.MaxRadius(d.MaxAbs(), d.Dim))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkSearchTop1(b *testing.B) {
	d, ix := benchIndex(b, true)
	s := ix.NewSearcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(d.Queries[i%d.NQ()], 1)
	}
}

func BenchmarkSearchTop100(b *testing.B) {
	d, ix := benchIndex(b, true)
	s := ix.NewSearcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(d.Queries[i%d.NQ()], 100)
	}
}

// BenchmarkSearchIntoTop1/Top100 time the zero-allocation steady state: the
// searcher-owned arenas plus a caller-owned result buffer (what BatchSearch
// workers run).
func BenchmarkSearchIntoTop1(b *testing.B) {
	benchSearchInto(b, 1)
}

func BenchmarkSearchIntoTop100(b *testing.B) {
	benchSearchInto(b, 100)
}

func benchSearchInto(b *testing.B, k int) {
	d, ix := benchIndex(b, true)
	s := ix.NewSearcher()
	ctx := context.Background()
	dst := make([]ann.Neighbor, 0, k)
	for _, q := range d.Queries {
		if _, _, err := s.SearchInto(ctx, q, k, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SearchInto(ctx, d.Queries[i%d.NQ()], k, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashKeys is the build's hash pass alone at n = 20000, d = 128:
// every object's projections and its hash at every (radius, table).
func BenchmarkHashKeys(b *testing.B) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "bench", N: 20000, Queries: 1, Dim: 128,
		Clusters: 16, Spread: 0.05, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := lshParamsFor(b, d)
	fams, err := lsh.NewFamilies(p, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("L=%d M=%d radii=%d", p.L, p.M, p.R())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys, err := HashKeys(d.Vectors, fams, p, true)
		if err != nil {
			b.Fatal(err)
		}
		keys.FreeAll()
	}
}
