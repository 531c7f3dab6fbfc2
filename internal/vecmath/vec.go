// Package vecmath provides the numeric kernels shared by every index in the
// repository: float32 vector operations (dot product, squared Euclidean
// distance, bounded squared distance for pruned verification), the
// panel-packed batched matrix-vector kernel behind every engine's query
// projections (MatVec), and the special functions needed by LSH parameter
// derivation and the SRS early-termination test (normal CDF, incomplete
// gamma, chi-square CDF).
//
// The kernels are manually unrolled, bounds-check-free loops, and on amd64
// packed SSE2 kernels for the projection GEMV (matvec_amd64.s) and the
// bounded distance of candidate verification (sqdist_amd64.s), an AVX-512
// GEMV over four vectors at once where the CPU has AVX512F/DQ (MatVec4),
// plus a cache-line prefetch for the vectors verification reads next; build
// with the purego tag to force the portable kernels. Every kernel preserves
// Dot's exact IEEE accumulation order, and every product in the portable
// loops is rounded by an explicit float64 conversion so that no platform
// fuses it into an FMA — see DESIGN.md, "Compute kernels".
package vecmath

import "math"

// Dot returns the dot product of a and b. The two vectors must have the same
// length; Dot panics otherwise, since a length mismatch is always a caller
// bug rather than a runtime condition.
//
//lsh:hotpath
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		s0 += float64(float64(x[0]) * float64(y[0]))
		s1 += float64(float64(x[1]) * float64(y[1]))
		s2 += float64(float64(x[2]) * float64(y[2]))
		s3 += float64(float64(x[3]) * float64(y[3]))
	}
	for ; i < len(a); i++ {
		s0 += float64(float64(a[i]) * float64(b[i]))
	}
	return s0 + s1 + s2 + s3
}

// SqDist returns the squared Euclidean distance between a and b. It panics on
// length mismatch for the same reason as Dot.
//
//lsh:hotpath
func SqDist(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: SqDist length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		d0 := float64(x[0]) - float64(y[0])
		d1 := float64(x[1]) - float64(y[1])
		d2 := float64(x[2]) - float64(y[2])
		d3 := float64(x[3]) - float64(y[3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += float64(d * d)
	}
	return s0 + s1 + s2 + s3
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float32) float64 {
	return math.Sqrt(SqDist(a, b))
}

// SqDistBounded computes the squared Euclidean distance between a and b but
// abandons the computation and returns (partial, false) as soon as the
// partial sum exceeds bound. Candidate verification uses it with the current
// k-th squared distance as the bound, skipping the tail of clearly-too-far
// points; since the per-lane partial sums only grow, abandoning is exact —
// an abandoned candidate could never have entered the top-k.
//
// The accumulation uses exactly SqDist's four-lane order, so a full
// (non-abandoned) run returns a result bitwise identical to SqDist: pruning
// never changes a reported distance. On amd64 the loop runs as a packed SSE2
// kernel whose vector lanes are those four accumulators (build with the
// purego tag for the portable loop); both return the same bits.
//
//lsh:hotpath
func SqDistBounded(a, b []float32, bound float64) (float64, bool) {
	if len(a) != len(b) {
		panic("vecmath: SqDistBounded length mismatch")
	}
	return sqDistBounded(a, b, bound)
}

// sqDistBoundedGo is SqDistBounded's portable loop: the purego kernel, and
// the reference the amd64 kernel is tested against bit for bit. The bound is
// tested once per 8 elements.
//
//lsh:hotpath
func sqDistBoundedGo(a, b []float32, bound float64) (float64, bool) {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		x := a[i : i+8 : i+8]
		y := b[i : i+8 : i+8]
		d0 := float64(x[0]) - float64(y[0])
		d1 := float64(x[1]) - float64(y[1])
		d2 := float64(x[2]) - float64(y[2])
		d3 := float64(x[3]) - float64(y[3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
		d4 := float64(x[4]) - float64(y[4])
		d5 := float64(x[5]) - float64(y[5])
		d6 := float64(x[6]) - float64(y[6])
		d7 := float64(x[7]) - float64(y[7])
		s0 += float64(d4 * d4)
		s1 += float64(d5 * d5)
		s2 += float64(d6 * d6)
		s3 += float64(d7 * d7)
		if s := s0 + s1 + s2 + s3; s > bound {
			return s, false
		}
	}
	if i+4 <= len(a) {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		d0 := float64(x[0]) - float64(y[0])
		d1 := float64(x[1]) - float64(y[1])
		d2 := float64(x[2]) - float64(y[2])
		d3 := float64(x[3]) - float64(y[3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
		i += 4
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += float64(d * d)
	}
	s := s0 + s1 + s2 + s3
	return s, s <= bound
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float64 {
	return math.Sqrt(Dot(a, a))
}

// Scale multiplies every element of a by s in place.
func Scale(a []float32, s float32) {
	for i := range a {
		a[i] *= s
	}
}

// MaxAbs returns the largest absolute coordinate value in the vector set,
// i.e. the x_max of the paper's R_max = 2·x_max·√d bound. It returns 0 for an
// empty set.
func MaxAbs(vectors [][]float32) float64 {
	var m float64
	for _, v := range vectors {
		for _, x := range v {
			ax := math.Abs(float64(x))
			if ax > m {
				m = ax
			}
		}
	}
	return m
}
