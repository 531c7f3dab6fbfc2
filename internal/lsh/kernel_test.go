package lsh

import (
	"math"
	"math/rand"
	"testing"

	"e2lshos/internal/vecmath"
)

// FuzzHashesAt holds HashesAtBulk's AVX-512 kernel to HashesAt's loop bit
// for bit: L = 1…40 (full and masked eight-table groups), any M, a power-of-two
// W (the kernel multiplies by 1/W) and one that is not (it divides), radii
// from 1e-3 to 1e6, and projections that include ±huge, ±Inf and NaN values,
// whose floors overflow int64. Random projections almost never sit where one
// rounding decides the floor, so some are placed within a few ulps of a
// bucket boundary: there a fused multiply-add, or a multiply by an inexact
// 1/W, lands in the neighbouring bucket. Guard words past out catch a store
// outside the masked lanes. On a CPU without AVX512F/DQ the kernel side is
// skipped.
func FuzzHashesAt(f *testing.F) {
	for l := uint8(1); l <= 40; l += 3 {
		f.Add(int64(l), l, uint8(25), true, 0.5, uint8(0), uint8(2))
		f.Add(int64(l)*7, l, uint8(l%9+1), false, 0.1, uint8(3), uint8(1))
	}
	f.Add(int64(99), uint8(15), uint8(25), true, 0.9, uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, lRaw, mRaw uint8, pow2 bool, radius float64, huge, edge uint8) {
		if !useAVX512 {
			t.Skip("no AVX512F/DQ: kernel side skipped")
		}
		rng := rand.New(rand.NewSource(seed))
		l, m := int(lRaw)%40+1, int(mRaw)%64+1
		w := math.Ldexp(1, rng.Intn(9)-3)
		if !pow2 {
			w *= 1 + rng.Float64()
		}
		fam, err := NewFamily(1, m, l, w, rng)
		if err != nil {
			t.Fatal(err)
		}
		r := math.Pow(10, math.Mod(math.Abs(radius), 1)*9-3)
		scale := math.Ldexp(1, rng.Intn(60)-20)
		proj := make([]float64, fam.NumProjections())
		extremes := []float64{1e19, -1e19, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}
		for i := range proj {
			proj[i] = rng.NormFloat64() * scale
			switch {
			case huge > 0 && rng.Intn(int(huge)+1) == 0:
				proj[i] = extremes[rng.Intn(len(extremes))]
			case edge > 0 && rng.Intn(int(edge)+1) == 0:
				// (proj/r + b)/W = an integer, give or take a few ulps.
				boundary := (math.Round(proj[i]/r/w)*w - fam.b[i]) * r
				proj[i] = math.Float64frombits(math.Float64bits(boundary) + uint64(rng.Intn(7)) - 3)
			}
		}
		want := make([]uint32, l)
		fam.HashesAt(proj, r, want)
		const guard = 0xdeadbeef
		got := make([]uint32, l+8)
		for i := range got {
			got[i] = guard
		}
		fam.HashesAtBulk(proj, r, got[:l])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("L=%d M=%d W=%v r=%v table %d: kernel %08x, portable loop %08x", l, m, w, r, i, got[i], want[i])
			}
		}
		for i := l; i < len(got); i++ {
			if got[i] != guard {
				t.Fatalf("L=%d: kernel wrote out[%d] past the last table", l, i)
			}
		}
	})
}

// FuzzProjectBatch holds ProjectBatch to per-vector Project (MatVec) bit for
// bit, over row counts that leave a partial panel and dims with every
// remainder modulo 4, scratch reused across calls. On a CPU without
// AVX512F/DQ ProjectBatch is four MatVec calls and the comparison is
// skipped.
func FuzzProjectBatch(f *testing.F) {
	for _, dim := range []uint16{1, 3, 4, 5, 8, 13, 64, 127, 128, 130} {
		f.Add(int64(dim), dim, uint8(5), uint8(3))
	}
	f.Add(int64(7), uint16(128), uint8(25), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, dimRaw uint16, mRaw, lRaw uint8) {
		if !vecmath.HasAVX512() {
			t.Skip("no AVX512F/DQ: kernel side skipped")
		}
		rng := rand.New(rand.NewSource(seed))
		dim, m, l := int(dimRaw)%300+1, int(mRaw)%32+1, int(lRaw)%16+1
		fam, err := NewFamily(dim, m, l, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		scratch := fam.BatchScratch()
		for round := 0; round < 2; round++ {
			var vs [4][]float32
			var got [4][]float64
			scale := math.Ldexp(1, rng.Intn(40)-20)
			for k := range vs {
				vs[k] = make([]float32, dim)
				for i := range vs[k] {
					vs[k][i] = float32(rng.NormFloat64() * scale)
				}
				got[k] = make([]float64, fam.NumProjections())
			}
			fam.ProjectBatch(&got, &vs, scratch)
			want := make([]float64, fam.NumProjections())
			for k := range vs {
				fam.Project(vs[k], want)
				for i := range want {
					if math.Float64bits(got[k][i]) != math.Float64bits(want[i]) {
						t.Fatalf("dim=%d rows=%d vector %d row %d: ProjectBatch %v, MatVec %v", dim, m*l, k, i, got[k][i], want[i])
					}
				}
			}
		}
	})
}
