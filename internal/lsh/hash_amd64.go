//go:build amd64 && !purego

package lsh

// hashesAVX512 is HashesAtBulk's AVX-512 kernel (hash_amd64.s): tables
// l0..l0+7 share one zmm register, lane i gathering table l0+i's projections
// and offsets from the l-major buffers, and every lane runs HashesAt's
// arithmetic for its table — multiply by inv, add the offset (never an FMA),
// then divide by w, or multiply by it when mul is set and w is the exact
// reciprocal of a power-of-two width; floor, truncate to int64, mix64 with a
// 64-bit multiply, fold32. The last group masks the lanes past table l-1, so
// it reads and writes nothing beyond the buffers. Only called when
// useAVX512 is set.
//
//go:noescape
func hashesAVX512(proj, b *float64, seeds *uint64, out *uint32, l, m int, inv, w float64, mul bool)
