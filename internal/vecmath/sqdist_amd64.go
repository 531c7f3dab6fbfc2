//go:build amd64 && !purego

package vecmath

// sqDistBounded is SqDistBounded's packed SSE2 kernel (sqdist_amd64.s): two
// xmm accumulators hold sqDistBoundedGo's four scalar lanes, so distance,
// abandonment value and ok flag are bitwise the portable loop's. SSE2 is the
// amd64 baseline, so no feature detection is needed.
//
//lsh:hotpath
//go:noescape
func sqDistBounded(a, b []float32, bound float64) (float64, bool)

// Prefetch asks the CPU to pull v's cache lines toward L1 (one PREFETCHT0
// per line) and returns at once. A caller that knows which vectors it will
// read next issues this a few vectors ahead, so the distance kernel finds
// them in cache instead of waiting on DRAM. It has no effect on results.
//
//lsh:hotpath
//go:noescape
func Prefetch(v []float32)
