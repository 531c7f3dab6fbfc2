//go:build !amd64 || purego

package vecmath

// sqDistBounded is SqDistBounded's kernel: the portable loop itself.
//
//lsh:hotpath
func sqDistBounded(a, b []float32, bound float64) (float64, bool) {
	return sqDistBoundedGo(a, b, bound)
}

// Prefetch is a cache hint on amd64 (see sqdist_amd64.go); the portable
// build has no way to issue one, so it does nothing.
//
//lsh:hotpath
func Prefetch(v []float32) {}
