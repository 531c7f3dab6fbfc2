//go:build !amd64 || purego

package lsh

// hashesAVX512 exists only where the AVX-512 kernel does; useAVX512 is
// false here (vecmath.HasAVX512), so HashesAtBulk never calls it.
func hashesAVX512(proj, b *float64, seeds *uint64, out *uint32, l, m int, inv, w float64, mul bool) {
	panic("lsh: AVX-512 kernel called in a portable build")
}
