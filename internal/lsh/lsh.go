// Package lsh implements the p-stable locality sensitive hashing core shared
// by the in-memory E2LSH index and the external-memory E2LSHoS index.
//
// A single hash function is h(o) = ⌊(a·o + b)/(w·R)⌋ with a ~ N(0,I)^d and
// b ~ U[0, w) (Eq. 1 of the paper, scaled to the current search radius R). A
// compound hash g_i concatenates m such functions (Eq. 4); the repository
// represents the concatenation as a 32-bit mixed value (§5.2: v = 32 bits,
// split by the indexes into a u-bit table index and a (32−u)-bit
// fingerprint).
package lsh

import (
	"fmt"
	"math"
	"math/rand"

	"e2lshos/internal/vecmath"
)

// Family is the set of random projections behind one E2LSH index: L compound
// hashes of M functions each, sharing a base bucket width W. Projections are
// computed once per vector and re-quantized per radius, which is the
// ShareProjections optimization described in DESIGN.md.
type Family struct {
	Dim, M, L int
	W         float64
	// a holds the (L*M)×Dim projection matrix packed into vecmath's
	// row-panel GEMV layout, so one MatVec computes all L·M projections of
	// a vector (DESIGN.md, "Compute kernels"). Rows keep the row-major
	// draw order of the original flat layout, so families are seed-stable
	// across the re-layout.
	a *vecmath.Panels
	// b holds L*M offsets, uniform in [0, W).
	b []float64
	// seeds holds one mixing seed per compound hash (table).
	seeds []uint64
}

// NewFamily draws a fresh family from rng. dim, m and l must be positive and
// w must be a positive width.
func NewFamily(dim, m, l int, w float64, rng *rand.Rand) (*Family, error) {
	if dim <= 0 || m <= 0 || l <= 0 {
		return nil, fmt.Errorf("lsh: NewFamily requires positive dim/m/l, got %d/%d/%d", dim, m, l)
	}
	if w <= 0 {
		return nil, fmt.Errorf("lsh: NewFamily requires positive width, got %v", w)
	}
	f := &Family{
		Dim:   dim,
		M:     m,
		L:     l,
		W:     w,
		b:     make([]float64, l*m),
		seeds: make([]uint64, l),
	}
	rows := make([]float32, l*m*dim)
	for i := range rows {
		rows[i] = float32(rng.NormFloat64())
	}
	f.a = vecmath.PackPanels(rows, l*m, dim)
	for i := range f.b {
		f.b[i] = rng.Float64() * w
	}
	for i := range f.seeds {
		f.seeds[i] = rng.Uint64() | 1
	}
	return f, nil
}

// NumProjections returns L*M, the size of a projection buffer.
func (f *Family) NumProjections() int { return f.L * f.M }

// ProjectInto fills dst (length L*M) with the raw dot products a_ij·q in a
// single blocked GEMV over the panel-packed projection matrix — the batched
// replacement for L·M independent Dot calls on the query hot path. The same
// buffer quantizes into hash values for any radius via HashesAt.
//
//lsh:hotpath
func (f *Family) ProjectInto(dst []float64, q []float32) {
	if len(q) != f.Dim {
		panic(fmt.Sprintf("lsh: ProjectInto dimension mismatch: vector %d, family %d", len(q), f.Dim))
	}
	if len(dst) != f.NumProjections() {
		panic(fmt.Sprintf("lsh: ProjectInto buffer length %d, want %d", len(dst), f.NumProjections()))
	}
	f.a.MatVec(dst, q)
}

// Project is ProjectInto with the pre-PR-4 argument order, kept for the
// builders and tests that grew around it.
func (f *Family) Project(v []float32, out []float64) {
	f.ProjectInto(out, v)
}

// ProjectBatch fills dst[k] with the projections of vs[k], four vectors in
// one pass over the projection matrix (vecmath.Panels.MatVec4); each dst[k]
// is bitwise what ProjectInto writes. scratch comes from BatchScratch and may
// be reused across calls.
//
//lsh:hotpath
func (f *Family) ProjectBatch(dst *[4][]float64, vs *[4][]float32, scratch []float64) {
	f.a.MatVec4(dst, vs, scratch)
}

// BatchScratch returns a scratch buffer for ProjectBatch.
func (f *Family) BatchScratch() []float64 {
	return make([]float64, vecmath.MatVec4Scratch(f.Dim))
}

// HashesAt quantizes a projection buffer at search radius r and mixes each
// compound hash into a 32-bit value, one per table, written into out
// (length L). The explicit float64 conversion keeps the multiply from fusing
// with the add into an FMA on platforms that have one: the hashes are
// persisted, so every platform must compute the same bits.
//
//lsh:hotpath
func (f *Family) HashesAt(proj []float64, r float64, out []uint32) {
	f.checkHashes(proj, r, out)
	inv := 1 / r
	for l := 0; l < f.L; l++ {
		h := f.seeds[l]
		base := l * f.M
		for j := 0; j < f.M; j++ {
			floor := int64(math.Floor((float64(proj[base+j]*inv) + f.b[base+j]) / f.W))
			h = mix64(h, uint64(floor))
		}
		out[l] = fold32(h)
	}
}

// HashesAtBulk is HashesAt for the index build's hash pass, bit for bit: on
// CPUs with AVX512F and AVX512DQ a kernel hashes eight tables per zmm
// register. Queries, updates and readahead keep HashesAt: called once per
// radius between verification rounds, the kernel measured lower BatchSearch
// throughput than the loop (DESIGN.md, "Compute kernels").
//
//lsh:hotpath
func (f *Family) HashesAtBulk(proj []float64, r float64, out []uint32) {
	if !useAVX512 {
		f.HashesAt(proj, r, out)
		return
	}
	f.checkHashes(proj, r, out)
	// x/W and x·(1/W) round alike only when 1/W is exact: W a power of two
	// whose reciprocal is finite. Otherwise the kernel divides, as the loop
	// does.
	w, mul := f.W, false
	if frac, _ := math.Frexp(w); frac == 0.5 && !math.IsInf(1/w, 0) {
		w, mul = 1/w, true
	}
	hashesAVX512(&proj[0], &f.b[0], &f.seeds[0], &out[0], f.L, f.M, 1/r, w, mul)
}

// useAVX512 selects HashesAtBulk's AVX-512 kernel; it follows
// vecmath.HasAVX512, and tests clear it to force the portable loop.
var useAVX512 = vecmath.HasAVX512()

func (f *Family) checkHashes(proj []float64, r float64, out []uint32) {
	if len(proj) != f.NumProjections() {
		panic(fmt.Sprintf("lsh: HashesAt projection length %d, want %d", len(proj), f.NumProjections()))
	}
	if len(out) != f.L {
		panic(fmt.Sprintf("lsh: HashesAt output length %d, want %d", len(out), f.L))
	}
	if r <= 0 {
		panic("lsh: HashesAt requires positive radius")
	}
}

// Hash32 computes the 32-bit compound hash of v for table l at radius r
// without a shared projection buffer. It is the slow path used by tests and
// by callers hashing a single table.
func (f *Family) Hash32(v []float32, l int, r float64) uint32 {
	h := f.seeds[l]
	base := l * f.M
	inv := 1 / r
	for j := 0; j < f.M; j++ {
		p := f.a.RowDot(base+j, v)
		floor := int64(math.Floor((float64(p*inv) + f.b[base+j]) / f.W))
		h = mix64(h, uint64(floor))
	}
	return fold32(h)
}

// mix64 is a splitmix64-style combiner: it absorbs one 64-bit lane into the
// running state. It must be deterministic across runs since hash values are
// persisted in the on-storage index.
func mix64(h, x uint64) uint64 {
	h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// fold32 reduces the 64-bit state to the paper's v=32-bit hash value.
func fold32(h uint64) uint32 {
	return uint32(h ^ (h >> 32))
}

// SplitHash splits a 32-bit hash value into a u-bit table index and a
// (32−u)-bit fingerprint (§5.2).
func SplitHash(h uint32, u uint) (index uint32, fingerprint uint32) {
	if u == 0 || u > 32 {
		panic(fmt.Sprintf("lsh: SplitHash requires 0 < u <= 32, got %d", u))
	}
	index = h & ((1 << u) - 1)
	if u == 32 {
		return index, 0
	}
	fingerprint = h >> u
	return index, fingerprint
}

// JoinHash is the inverse of SplitHash, used by tests and index verification.
func JoinHash(index, fingerprint uint32, u uint) uint32 {
	if u == 32 {
		return index
	}
	return index | fingerprint<<u
}
