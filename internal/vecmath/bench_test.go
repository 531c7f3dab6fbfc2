package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

func benchVecs(dim int) ([]float32, []float32) {
	r := rand.New(rand.NewSource(1))
	a, b := make([]float32, dim), make([]float32, dim)
	for i := range a {
		a[i] = float32(r.NormFloat64())
		b[i] = float32(r.NormFloat64())
	}
	return a, b
}

func BenchmarkDot128(b *testing.B) {
	x, y := benchVecs(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

func BenchmarkDot960(b *testing.B) {
	x, y := benchVecs(960)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

func BenchmarkSqDist128(b *testing.B) {
	x, y := benchVecs(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SqDist(x, y)
	}
}

func BenchmarkSqDistBounded128(b *testing.B) {
	x, y := benchVecs(128)
	bound := SqDist(x, y) / 2 // typical early exit
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SqDistBounded(x, y, bound)
	}
}

// BenchmarkSqDistBounded128Full never abandons: the cost of a candidate that
// enters (or nearly enters) the top-k, all 16 bound tests included.
func BenchmarkSqDistBounded128Full(b *testing.B) {
	x, y := benchVecs(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SqDistBounded(x, y, math.Inf(1))
	}
}

func BenchmarkCollisionProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		CollisionProb(4, 1.7)
	}
}

func BenchmarkChiSquareCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ChiSquareCDF(12.5, 8)
	}
}
