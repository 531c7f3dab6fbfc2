package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDotBasic(t *testing.T) {
	cases := []struct {
		a, b []float32
		want float64
	}{
		{nil, nil, 0},
		{[]float32{1}, []float32{2}, 2},
		{[]float32{1, 2, 3}, []float32{4, 5, 6}, 32},
		{[]float32{1, 2, 3, 4, 5}, []float32{1, 1, 1, 1, 1}, 15},
		{[]float32{-1, 2, -3, 4}, []float32{1, 2, 3, 4}, 10},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Dot(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot did not panic on length mismatch")
		}
	}()
	Dot([]float32{1, 2}, []float32{1})
}

func TestSqDistPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SqDist did not panic on length mismatch")
		}
	}()
	SqDist([]float32{1, 2}, []float32{1})
}

func naiveDot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func naiveSqDist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

func randVec(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func TestDotMatchesNaiveAllLengths(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 37; n++ {
		a, b := randVec(r, n), randVec(r, n)
		if got, want := Dot(a, b), naiveDot(a, b); !almostEqual(got, want, 1e-10) {
			t.Errorf("n=%d: Dot=%v naive=%v", n, got, want)
		}
	}
}

func TestSqDistMatchesNaiveAllLengths(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for n := 0; n <= 37; n++ {
		a, b := randVec(r, n), randVec(r, n)
		if got, want := SqDist(a, b), naiveSqDist(a, b); !almostEqual(got, want, 1e-10) {
			t.Errorf("n=%d: SqDist=%v naive=%v", n, got, want)
		}
	}
}

func TestSqDistProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	// Symmetry and non-negativity.
	sym := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		d1, d2 := SqDist(a, b), SqDist(b, a)
		return d1 >= 0 && almostEqual(d1, d2, 1e-9)
	}
	if err := quick.Check(sym, cfg); err != nil {
		t.Error(err)
	}
	// Identity of indiscernibles.
	self := func(a []float32) bool { return SqDist(a, a) == 0 }
	if err := quick.Check(self, cfg); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		a, b, c := randVec(r, n), randVec(r, n), randVec(r, n)
		ab, bc, ac := Dist(a, b), Dist(b, c), Dist(a, c)
		if ac > ab+bc+1e-9 {
			t.Fatalf("triangle inequality violated: ac=%v > ab+bc=%v", ac, ab+bc)
		}
	}
}

func TestSqDistBounded(t *testing.T) {
	a := []float32{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	b := []float32{3, 0, 0, 0, 0, 0, 0, 0, 0, 4}
	if d, ok := SqDistBounded(a, b, 25); !ok || d != 25 {
		t.Errorf("SqDistBounded exact bound: got (%v,%v) want (25,true)", d, ok)
	}
	if d, ok := SqDistBounded(a, b, 26); !ok || d != 25 {
		t.Errorf("SqDistBounded loose bound: got (%v,%v) want (25,true)", d, ok)
	}
	if _, ok := SqDistBounded(a, b, 8); ok {
		t.Error("SqDistBounded should report bound exceeded")
	}
}

func TestSqDistBoundedMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(50)
		a, b := randVec(r, n), randVec(r, n)
		exact := SqDist(a, b)
		d, ok := SqDistBounded(a, b, exact+1)
		if !ok || !almostEqual(d, exact, 1e-9) {
			t.Fatalf("bounded mismatch: got (%v,%v) want (%v,true)", d, ok, exact)
		}
		if _, ok := SqDistBounded(a, b, exact/2-1e-9); ok && exact > 1e-9 {
			t.Fatalf("bounded should fail below exact distance %v", exact)
		}
	}
}

func TestNormAndScale(t *testing.T) {
	v := []float32{3, 4}
	if got := Norm(v); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Norm = %v, want 5", got)
	}
	Scale(v, 2)
	if v[0] != 6 || v[1] != 8 {
		t.Errorf("Scale result %v, want [6 8]", v)
	}
}

func TestMaxAbs(t *testing.T) {
	if got := MaxAbs(nil); got != 0 {
		t.Errorf("MaxAbs(nil) = %v, want 0", got)
	}
	vs := [][]float32{{1, -7, 2}, {3, 4}}
	if got := MaxAbs(vs); got != 7 {
		t.Errorf("MaxAbs = %v, want 7", got)
	}
}
