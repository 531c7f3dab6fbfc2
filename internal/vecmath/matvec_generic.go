//go:build !amd64 || purego

package vecmath

// matvecPanel accumulates one panel's full 4-column blocks into acc, laid
// out acc[lane*PanelRows+row]. cols is a positive multiple of 4 and a holds
// the panel's PanelRows·dim packed entries. This is the portable scalar
// kernel; amd64 replaces it with a packed SSE2 version computing the same
// IEEE operations in the same order. Each product is rounded by an explicit
// float64 conversion, which the Go spec says may not fuse into the add: an
// FMA would change the bits the golden digests pin.
func matvecPanel(a []float64, v []float32, cols int, acc *[4 * PanelRows]float64) {
	var s00, s01, s02, s03 float64
	var s10, s11, s12, s13 float64
	var s20, s21, s22, s23 float64
	var s30, s31, s32, s33 float64
	for c := 0; c+4 <= cols; c += 4 {
		x := v[c : c+4 : c+4]
		blk := a[c*PanelRows : (c+4)*PanelRows : (c+4)*PanelRows]
		v0, v1, v2, v3 := float64(x[0]), float64(x[1]), float64(x[2]), float64(x[3])
		s00 += float64(v0 * blk[0])
		s10 += float64(v0 * blk[1])
		s20 += float64(v0 * blk[2])
		s30 += float64(v0 * blk[3])
		s01 += float64(v1 * blk[4])
		s11 += float64(v1 * blk[5])
		s21 += float64(v1 * blk[6])
		s31 += float64(v1 * blk[7])
		s02 += float64(v2 * blk[8])
		s12 += float64(v2 * blk[9])
		s22 += float64(v2 * blk[10])
		s32 += float64(v2 * blk[11])
		s03 += float64(v3 * blk[12])
		s13 += float64(v3 * blk[13])
		s23 += float64(v3 * blk[14])
		s33 += float64(v3 * blk[15])
	}
	acc[0], acc[1], acc[2], acc[3] = s00, s10, s20, s30
	acc[4], acc[5], acc[6], acc[7] = s01, s11, s21, s31
	acc[8], acc[9], acc[10], acc[11] = s02, s12, s22, s32
	acc[12], acc[13], acc[14], acc[15] = s03, s13, s23, s33
}

// matvec4Panel exists only where the AVX-512 kernel does; hasAVX512 is
// false here, so MatVec4 never calls it.
func matvec4Panel(a, e *float64, cols int, acc *[4][4 * PanelRows]float64) {
	panic("vecmath: AVX-512 kernel called in a portable build")
}

// hasAVX512 is false: the portable build runs no AVX-512 kernel.
func hasAVX512() bool { return false }
