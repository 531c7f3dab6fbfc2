package dataset

import (
	"bytes"
	"math"
	"testing"

	"e2lshos/internal/ann"
)

func mustGenerate(t *testing.T, spec Spec) *Dataset {
	t.Helper()
	d, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", spec, err)
	}
	return d
}

func TestSpecValidate(t *testing.T) {
	valid := Spec{Name: "x", N: 10, Dim: 4, Queries: 2, Clusters: 2, Spread: 0.1}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []Spec{
		{Name: "n", N: 0, Dim: 4, Clusters: 1},
		{Name: "d", N: 10, Dim: 0, Clusters: 1},
		{Name: "q", N: 10, Dim: 4, Queries: -1, Clusters: 1},
		{Name: "noise", N: 10, Dim: 4, Clusters: 1, Noise: 1.5},
		{Name: "both", N: 10, Dim: 4, Uniform: true, Gaussian: true},
		{Name: "nocluster", N: 10, Dim: 4},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("spec %q should be invalid", c.Name)
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	d := mustGenerate(t, Spec{Name: "t", N: 100, Queries: 7, Dim: 16, Clusters: 4, Spread: 0.05, Seed: 1})
	if d.N() != 100 || d.NQ() != 7 || d.Dim != 16 {
		t.Fatalf("shapes: n=%d nq=%d dim=%d", d.N(), d.NQ(), d.Dim)
	}
	for _, v := range d.Vectors {
		if len(v) != 16 {
			t.Fatal("vector length mismatch")
		}
	}
	if d.Bytes() != 100*16*4 {
		t.Errorf("Bytes = %d, want %d", d.Bytes(), 100*16*4)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "t", N: 50, Queries: 5, Dim: 8, Clusters: 3, Spread: 0.1, Seed: 42}
	d1 := mustGenerate(t, spec)
	d2 := mustGenerate(t, spec)
	for i := range d1.Vectors {
		for j := range d1.Vectors[i] {
			if d1.Vectors[i][j] != d2.Vectors[i][j] {
				t.Fatal("generation is not deterministic")
			}
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	spec := Spec{Name: "t", N: 50, Queries: 0, Dim: 8, Clusters: 3, Spread: 0.1, Seed: 1}
	d1 := mustGenerate(t, spec)
	spec.Seed = 2
	d2 := mustGenerate(t, spec)
	same := true
	for i := range d1.Vectors {
		for j := range d1.Vectors[i] {
			if d1.Vectors[i][j] != d2.Vectors[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestByteQuantization(t *testing.T) {
	d := mustGenerate(t, Spec{Name: "b", N: 200, Queries: 0, Dim: 32, Clusters: 4, Spread: 0.1, Values: ByteValues, Seed: 3})
	for _, v := range d.Vectors {
		for _, x := range v {
			if x < 0 || x > 255 || x != float32(math.Trunc(float64(x))) {
				t.Fatalf("byte dataset has non-integer or out-of-range value %v", x)
			}
		}
	}
}

func TestUniformRange(t *testing.T) {
	d := mustGenerate(t, Spec{Name: "u", N: 500, Dim: 10, Uniform: true, Seed: 4})
	for _, v := range d.Vectors {
		for _, x := range v {
			if x < 0 || x > 1 {
				t.Fatalf("uniform value %v out of [0,1]", x)
			}
		}
	}
}

// TestGroundTruthMatchesBruteForce holds the blocked, tiled GroundTruth to
// per-query ann.BruteForce: IDs and distance bits, over a query count that
// leaves a partial block and a database that leaves a partial tile. Byte
// values, duplicated vectors and queries copied from the database make ties,
// which only the scan order breaks.
func TestGroundTruthMatchesBruteForce(t *testing.T) {
	d := mustGenerate(t, Spec{Name: "g", N: 1000, Queries: 45, Dim: 12, Clusters: 5, Spread: 0.08, Values: ByteValues, Seed: 5})
	for i := 0; i < d.N(); i += 7 {
		copy(d.Vectors[i], d.Vectors[(i*31+3)%d.N()])
	}
	for qi := 0; qi < d.NQ(); qi += 3 {
		copy(d.Queries[qi], d.Vectors[qi*17])
	}
	const k = 10
	gt := GroundTruth(d, k)
	if len(gt) != d.NQ() {
		t.Fatalf("ground truth size %d, want %d", len(gt), d.NQ())
	}
	ties := 0
	for qi, res := range gt {
		want := ann.BruteForce(d.Vectors, d.Queries[qi], k).Neighbors
		if len(res.Neighbors) != len(want) {
			t.Fatalf("query %d: %d neighbors, want %d", qi, len(res.Neighbors), len(want))
		}
		for i, nb := range res.Neighbors {
			if nb.ID != want[i].ID || math.Float64bits(nb.Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("query %d rank %d: (%d, %v), BruteForce (%d, %v)", qi, i, nb.ID, nb.Dist, want[i].ID, want[i].Dist)
			}
			if i > 0 && nb.Dist == res.Neighbors[i-1].Dist {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no tied distances: the test does not exercise tie order")
	}
}

func TestHardnessOrdering(t *testing.T) {
	// The paper's Table 1 hardness ordering must be preserved by the clones:
	// clustered byte datasets (SIFT/MNIST-like) are easy (high RC), GAUSS is
	// hardest (RC near 1).
	gen := func(name PaperName) *Dataset {
		spec, err := PaperSpec(name, 0, 2000, 20)
		if err != nil {
			t.Fatal(err)
		}
		spec.N = 2000
		d, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	rcSIFT := RelativeContrast(gen(SIFT), 10, 500, 1)
	rcGAUSS := RelativeContrast(gen(GAUSS), 10, 500, 1)
	rcRAND := RelativeContrast(gen(RAND), 10, 500, 1)
	if !(rcSIFT > rcRAND && rcRAND > rcGAUSS) {
		t.Errorf("hardness ordering broken: RC SIFT=%.2f RAND=%.2f GAUSS=%.2f", rcSIFT, rcRAND, rcGAUSS)
	}
	if rcGAUSS > 1.6 {
		t.Errorf("GAUSS clone too easy: RC=%.2f", rcGAUSS)
	}
	if rcSIFT < 1.8 {
		t.Errorf("SIFT clone too hard: RC=%.2f", rcSIFT)
	}
}

func TestLIDOrdering(t *testing.T) {
	gen := func(name PaperName, n int) *Dataset {
		spec, err := PaperSpec(name, 0, n, 15)
		if err != nil {
			t.Fatal(err)
		}
		spec.N = n
		d, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	lidMNIST := LocalIntrinsicDimensionality(gen(MNIST, 2000), 20, 10, 1)
	lidGAUSS := LocalIntrinsicDimensionality(gen(GAUSS, 2000), 20, 10, 1)
	if lidGAUSS <= lidMNIST {
		t.Errorf("LID ordering broken: GAUSS=%.1f should exceed MNIST=%.1f", lidGAUSS, lidMNIST)
	}
}

func TestNNDistanceQuantile(t *testing.T) {
	d := mustGenerate(t, Spec{Name: "q", N: 500, Queries: 30, Dim: 8, Clusters: 4, Spread: 0.05, Seed: 6})
	q10 := NNDistanceQuantile(d, 0.1, 30, 1)
	q90 := NNDistanceQuantile(d, 0.9, 30, 1)
	if q10 <= 0 || q90 <= 0 {
		t.Fatalf("quantiles should be positive: q10=%v q90=%v", q10, q90)
	}
	if q10 > q90 {
		t.Fatalf("q10=%v > q90=%v", q10, q90)
	}
}

func TestSubset(t *testing.T) {
	d := mustGenerate(t, Spec{Name: "s", N: 100, Queries: 5, Dim: 4, Clusters: 2, Spread: 0.1, Seed: 7})
	sub := d.Subset(30)
	if sub.N() != 30 || sub.NQ() != 5 {
		t.Fatalf("subset shapes: n=%d nq=%d", sub.N(), sub.NQ())
	}
	if &sub.Vectors[0][0] != &d.Vectors[0][0] {
		t.Error("subset should share backing storage")
	}
	over := d.Subset(1000)
	if over.N() != 100 {
		t.Errorf("oversized subset should clamp to %d, got %d", 100, over.N())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := mustGenerate(t, Spec{Name: "roundtrip", N: 64, Queries: 8, Dim: 12, Clusters: 3, Spread: 0.1, Values: ByteValues, Seed: 8})
	var buf bytes.Buffer
	if err := Save(&buf, d); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Name != d.Name || got.Dim != d.Dim || got.Values != d.Values {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.N() != d.N() || got.NQ() != d.NQ() {
		t.Fatalf("size mismatch: n=%d nq=%d", got.N(), got.NQ())
	}
	for i := range d.Vectors {
		for j := range d.Vectors[i] {
			if got.Vectors[i][j] != d.Vectors[i][j] {
				t.Fatal("vector data mismatch after round trip")
			}
		}
	}
	for i := range d.Queries {
		for j := range d.Queries[i] {
			if got.Queries[i][j] != d.Queries[i][j] {
				t.Fatal("query data mismatch after round trip")
			}
		}
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("XXXXgarbage"))); err == nil {
		t.Fatal("Load accepted bad magic")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	d := mustGenerate(t, Spec{Name: "trunc", N: 10, Queries: 2, Dim: 4, Clusters: 2, Spread: 0.1, Seed: 9})
	var buf bytes.Buffer
	if err := Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("Load accepted truncated stream")
	}
}

func TestSaveLoadFile(t *testing.T) {
	d := mustGenerate(t, Spec{Name: "file", N: 20, Queries: 3, Dim: 6, Clusters: 2, Spread: 0.1, Seed: 10})
	path := t.TempDir() + "/ds.bin"
	if err := SaveFile(path, d); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got.N() != d.N() {
		t.Fatalf("N mismatch: %d vs %d", got.N(), d.N())
	}
}

func TestPaperSpecs(t *testing.T) {
	for _, name := range PaperNames {
		spec, err := PaperSpec(name, 0.0001, 1000, 10)
		if err != nil {
			t.Fatalf("PaperSpec(%s): %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("PaperSpec(%s) invalid: %v", name, err)
		}
		if spec.N < 1000 {
			t.Errorf("PaperSpec(%s) N=%d below clamp", name, spec.N)
		}
	}
	if _, err := PaperSpec("NOPE", 1, 1, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestPaperSpecScaling(t *testing.T) {
	small, _ := PaperSpec(SIFT, 0.001, 100, 10)
	large, _ := PaperSpec(SIFT, 0.01, 100, 10)
	if small.N >= large.N {
		t.Errorf("scaling broken: %d >= %d", small.N, large.N)
	}
	if large.N != 10000 {
		t.Errorf("SIFT at 0.01 scale: N=%d, want 10000", large.N)
	}
}

func TestSeedForStable(t *testing.T) {
	if seedFor(SIFT) != seedFor(SIFT) {
		t.Error("seedFor not stable")
	}
	if seedFor(SIFT) == seedFor(GIST) {
		t.Error("seedFor should differ across datasets")
	}
}
