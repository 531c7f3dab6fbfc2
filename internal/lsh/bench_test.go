package lsh

import (
	"math/rand"
	"testing"

	"e2lshos/internal/vecmath"
)

// benchFamily is lib-file-batch's shape: d = 128, M = 25, L = 15, W = 4.
func benchFamily(b *testing.B) (*Family, []float32, []float64, []uint32) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	f, err := NewFamily(128, 25, 15, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float32, 128)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return f, v, make([]float64, f.NumProjections()), make([]uint32, f.L)
}

func BenchmarkProject128x375(b *testing.B) {
	f, v, proj, _ := benchFamily(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Project(v, proj)
	}
}

// BenchmarkProjectBatch projects four vectors per op: in one pass over the
// matrix (batch, the AVX-512 kernel) and as four Project calls (matvec).
func BenchmarkProjectBatch(b *testing.B) {
	f, v, _, _ := benchFamily(b)
	var vs [4][]float32
	var dst [4][]float64
	for k := range vs {
		vs[k], dst[k] = v, make([]float64, f.NumProjections())
	}
	scratch := f.BatchScratch()
	b.Run("matvec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := range vs {
				f.Project(vs[k], dst[k])
			}
		}
	})
	if !vecmath.HasAVX512() {
		b.Log("no AVX512F/DQ: batch is four MatVec calls")
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.ProjectBatch(&dst, &vs, scratch)
		}
	})
}

// BenchmarkHashesAt quantizes and mixes all 15 tables at one radius: with
// the build's AVX-512 kernel (bulk, where the CPU has one) and with the loop
// the query path runs (loop).
func BenchmarkHashesAt(b *testing.B) {
	f, v, proj, hashes := benchFamily(b)
	f.Project(v, proj)
	if useAVX512 {
		b.Run("bulk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.HashesAtBulk(proj, 4, hashes)
			}
		})
	}
	b.Run("loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.HashesAt(proj, 4, hashes)
		}
	})
}

func BenchmarkDerive(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Derive(cfg, 1000000, 128, 1, 5000); err != nil {
			b.Fatal(err)
		}
	}
}
