package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// benchMatrix draws a deterministic rows×dim row-major matrix.
func benchMatrix(rows, dim int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	a := make([]float32, rows*dim)
	for i := range a {
		a[i] = float32(r.NormFloat64())
	}
	return a
}

// TestMatVecMatchesDot is the kernel-equivalence contract of the query hot
// path: MatVec must agree with per-row Dot bitwise (not just approximately),
// across panel-remainder row counts and unroll-remainder dims.
func TestMatVecMatchesDot(t *testing.T) {
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 200} {
		for _, dim := range []int{1, 3, 4, 7, 8, 9, 12, 15, 16, 128, 129} {
			rowMajor := benchMatrix(rows, dim, int64(rows*1000+dim))
			p := PackPanels(rowMajor, rows, dim)
			v := benchMatrix(1, dim, int64(rows+dim))
			dst := make([]float64, rows)
			p.MatVec(dst, v)
			for r := 0; r < rows; r++ {
				want := Dot(rowMajor[r*dim:(r+1)*dim], v)
				if dst[r] != want {
					t.Fatalf("rows=%d dim=%d row %d: MatVec %v != Dot %v", rows, dim, r, dst[r], want)
				}
				if got := p.RowDot(r, v); got != want {
					t.Fatalf("rows=%d dim=%d row %d: RowDot %v != Dot %v", rows, dim, r, got, want)
				}
			}
			// The free function is the same kernel.
			dst2 := make([]float64, rows)
			MatVec(dst2, p, v)
			for r := range dst {
				if dst[r] != dst2[r] {
					t.Fatalf("MatVec free function diverged at row %d", r)
				}
			}
		}
	}
}

func TestPanelsRowUnpack(t *testing.T) {
	rows, dim := 7, 13
	rowMajor := benchMatrix(rows, dim, 42)
	p := PackPanels(rowMajor, rows, dim)
	if p.Rows() != rows || p.Dim() != dim {
		t.Fatalf("Rows/Dim = %d/%d, want %d/%d", p.Rows(), p.Dim(), rows, dim)
	}
	buf := make([]float32, dim)
	for r := 0; r < rows; r++ {
		got := p.Row(buf, r)
		for c := 0; c < dim; c++ {
			if got[c] != rowMajor[r*dim+c] {
				t.Fatalf("row %d col %d: unpacked %v, want %v", r, c, got[c], rowMajor[r*dim+c])
			}
		}
	}
}

func TestPackPanelsPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { PackPanels(nil, 0, 4) },
		func() { PackPanels(make([]float32, 8), 3, 4) },
		func() { PackPanels(make([]float32, 8), 2, 4).MatVec(make([]float64, 2), make([]float32, 3)) },
		func() { PackPanels(make([]float32, 8), 2, 4).MatVec(make([]float64, 3), make([]float32, 4)) },
		func() { PackPanels(make([]float32, 8), 2, 4).RowDot(2, make([]float32, 4)) },
		func() { PackPanels(make([]float32, 8), 2, 4).Row(make([]float32, 4), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestSqDistBoundedMatchesSqDist asserts the pruning kernel's exactness
// contract: a run that completes returns SqDist's value bitwise, and a run
// that abandons does so only when the true squared distance exceeds the
// bound.
func TestSqDistBoundedMatchesSqDist(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 4, 7, 8, 9, 15, 16, 64, 128, 130} {
		a := make([]float32, dim)
		b := make([]float32, dim)
		for i := range a {
			a[i] = float32(r.NormFloat64())
			b[i] = float32(r.NormFloat64())
		}
		full := SqDist(a, b)
		for _, bound := range []float64{0, full / 2, full, full * 2} {
			got, ok := SqDistBounded(a, b, bound)
			if ok {
				if got != full {
					t.Fatalf("dim=%d bound=%v: completed run %v != SqDist %v", dim, bound, got, full)
				}
				if full > bound {
					t.Fatalf("dim=%d: ok=true but %v > bound %v", dim, full, bound)
				}
			} else if full <= bound {
				t.Fatalf("dim=%d bound=%v: abandoned although SqDist %v <= bound", dim, bound, full)
			}
		}
	}
}

// FuzzSqDistBounded holds the amd64 kernel to the portable loop bit for bit
// — distance (or abandonment value) bits and ok flag — over lengths 0–300,
// every remainder modulo 8 and 4 among them, with bounds 0, +Inf and a
// random fraction of the full distance (which makes the kernel abandon at
// an arbitrary 8-element block). Under purego the two are the same loop.
func FuzzSqDistBounded(f *testing.F) {
	for n := 0; n <= 300; n += 7 {
		for kind := uint8(0); kind < 3; kind++ {
			f.Add(int64(n), uint16(n), kind, 0.5)
		}
	}
	for _, n := range []uint16{1, 3, 4, 5, 8, 12, 13, 127, 128, 129, 300} {
		f.Add(int64(n)*31, n, uint8(1), 0.97)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, kind uint8, frac float64) {
		r := rand.New(rand.NewSource(seed))
		dim := int(n) % 301
		scale := math.Ldexp(1, r.Intn(40)-20)
		a, b := make([]float32, dim), make([]float32, dim)
		for i := range a {
			a[i] = float32(r.NormFloat64() * scale)
			b[i] = float32(r.NormFloat64() * scale)
		}
		var bound float64
		switch kind % 3 {
		case 1:
			bound = SqDist(a, b) * math.Abs(math.Mod(frac, 2))
		case 2:
			bound = math.Inf(1)
		}
		got, gotOK := sqDistBounded(a, b, bound)
		want, wantOK := sqDistBoundedGo(a, b, bound)
		if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
			t.Fatalf("dim=%d bound=%v: kernel (%v, %v), portable loop (%v, %v)", dim, bound, got, gotOK, want, wantOK)
		}
	})
}

// The headline micro-benchmark pair: one GEMV over the packed 200×128 panel
// matrix versus the 200 independent Dot calls it replaces (the pre-PR-4
// Family.Project inner loop). The acceptance bar is MatVec ≥ 2x.
const (
	benchRows = 200 // a typical L·M
	benchDim  = 128 // SIFT dimensionality
)

func BenchmarkMatVec(b *testing.B) {
	rowMajor := benchMatrix(benchRows, benchDim, 1)
	p := PackPanels(rowMajor, benchRows, benchDim)
	v := benchMatrix(1, benchDim, 2)
	dst := make([]float64, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MatVec(dst, v)
	}
}

func BenchmarkMatVecDotLoop(b *testing.B) {
	rowMajor := benchMatrix(benchRows, benchDim, 1)
	v := benchMatrix(1, benchDim, 2)
	dst := make([]float64, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < benchRows; r++ {
			dst[r] = Dot(rowMajor[r*benchDim:(r+1)*benchDim], v)
		}
	}
}
