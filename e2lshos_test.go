package e2lshos

import (
	"context"
	"path/filepath"
	"testing"
)

func facadeDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := GenerateDataset(DatasetSpec{
		Name: "facade", N: 2000, Queries: 10, Dim: 32,
		Clusters: 6, Spread: 0.06, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInMemoryIndexEndToEnd(t *testing.T) {
	ctx := context.Background()
	d := facadeDataset(t)
	ix, err := NewInMemoryIndex(d.Vectors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	gt := GroundTruth(d, 1)
	var sum float64
	for qi, q := range d.Queries {
		res, st, err := ix.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if st.Queries != 1 || st.Radii == 0 {
			t.Errorf("query %d: implausible stats %+v", qi, st)
		}
		sum += OverallRatio(res, gt[qi], 1)
	}
	if avg := sum / float64(d.NQ()); avg > 1.6 {
		t.Errorf("in-memory ratio %v too weak", avg)
	}
	if ix.IndexBytes() <= 0 {
		t.Error("IndexBytes not positive")
	}
	res, _, err := ix.Search(ctx, d.Queries[0], WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) == 0 {
		t.Error("top-3 search found nothing")
	}
}

func TestStorageIndexEndToEnd(t *testing.T) {
	ctx := context.Background()
	d := facadeDataset(t)
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := ix.Search(ctx, d.Queries[0], WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) == 0 {
		t.Fatal("storage search found nothing")
	}
	if st.IOs() == 0 || st.TableIOs == 0 {
		t.Errorf("storage search reported no I/O: %+v", st)
	}
	if ix.StorageBytes() <= 0 || ix.MemBytes() <= 0 {
		t.Error("size accounting broken")
	}
	if ix.MemBytes() >= ix.StorageBytes() {
		t.Error("DRAM metadata should be much smaller than the storage index")
	}
}

func TestStorageIndexPersistence(t *testing.T) {
	ctx := context.Background()
	d := facadeDataset(t)
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 16})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.e2ix")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenStorageIndex(path, d.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	opts := []SearchOption{WithK(3)}
	want, _, err := ix.Search(ctx, d.Queries[1], opts...)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := loaded.Search(ctx, d.Queries[1], opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Neighbors) != len(got.Neighbors) {
		t.Fatal("results differ after reload")
	}
	for i := range want.Neighbors {
		if want.Neighbors[i] != got.Neighbors[i] {
			t.Fatal("results differ after reload")
		}
	}
}

func TestSimulate(t *testing.T) {
	d := facadeDataset(t)
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 8})
	if err != nil {
		t.Fatal(err)
	}
	repSlow, err := ix.Simulate(d.Queries, SimulationConfig{Device: ConsumerSSD, Iface: IOUring})
	if err != nil {
		t.Fatal(err)
	}
	repFast, err := ix.Simulate(d.Queries, SimulationConfig{Device: XLFlashDrive, Devices: 12, Iface: XLFDDInterface})
	if err != nil {
		t.Fatal(err)
	}
	if repSlow.QueryTimeMS <= 0 || repFast.QueryTimeMS <= 0 {
		t.Fatal("non-positive simulated query times")
	}
	if repFast.QueryTimeMS > repSlow.QueryTimeMS {
		t.Errorf("XLFDD x12 (%v ms) slower than cSSD x1 (%v ms)", repFast.QueryTimeMS, repSlow.QueryTimeMS)
	}
	if repSlow.MeanIOsPerQuery <= 0 {
		t.Error("no I/Os accounted")
	}
	if len(repSlow.Results) != d.NQ() {
		t.Error("missing per-query results")
	}
}

func TestSimulateValidation(t *testing.T) {
	d := facadeDataset(t)
	ix, err := NewStorageIndex(d.Vectors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Simulate(nil, SimulationConfig{}); err == nil {
		t.Error("empty query batch accepted")
	}
	if _, err := ix.Simulate(d.Queries, SimulationConfig{Device: DeviceModel(99)}); err == nil {
		t.Error("unknown device accepted")
	}
	if _, err := ix.Simulate(d.Queries, SimulationConfig{Iface: Interface(99)}); err == nil {
		t.Error("unknown interface accepted")
	}
}

// TestBudgetOption checks that WithBudget really moves the candidate knob:
// a larger budget must verify at least as many candidates.
func TestBudgetOption(t *testing.T) {
	ctx := context.Background()
	d := facadeDataset(t)
	for _, build := range []struct {
		name string
		make func() (Engine, error)
	}{
		{"mem", func() (Engine, error) { return NewInMemoryIndex(d.Vectors, Config{}) }},
		{"disk", func() (Engine, error) { return NewStorageIndex(d.Vectors, Config{}) }},
	} {
		eng, err := build.make()
		if err != nil {
			t.Fatal(err)
		}
		_, small, err := eng.BatchSearch(ctx, d.Queries, WithK(3), WithBudget(4))
		if err != nil {
			t.Fatal(err)
		}
		_, large, err := eng.BatchSearch(ctx, d.Queries, WithK(3), WithBudget(4000))
		if err != nil {
			t.Fatal(err)
		}
		if small.Checked >= large.Checked {
			t.Errorf("%s: budget 4 checked %d, budget 4000 checked %d; knob inert",
				build.name, small.Checked, large.Checked)
		}
	}
}

func TestSearchOptionValidation(t *testing.T) {
	ctx := context.Background()
	d := facadeDataset(t)
	ix, err := NewInMemoryIndex(d.Vectors, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]SearchOption{
		{WithK(0)},
		{WithK(-3)},
		{WithBudget(-1)},
		{WithMultiProbe(-1)},
		{WithWorkers(-1)},
	} {
		if _, _, err := ix.Search(ctx, d.Queries[0], bad...); err == nil {
			t.Errorf("options %v accepted", bad)
		}
		if _, _, err := ix.BatchSearch(ctx, d.Queries, bad...); err == nil {
			t.Errorf("batch options %v accepted", bad)
		}
	}
}

func TestGeneratePaperDataset(t *testing.T) {
	d, err := GeneratePaperDataset(SIFT, 0, 1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() < 1500 || d.Dim != 128 {
		t.Errorf("unexpected clone shape: n=%d d=%d", d.N(), d.Dim)
	}
}

func TestConfigDeriveErrors(t *testing.T) {
	if _, err := NewInMemoryIndex(nil, Config{}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := NewStorageIndex(nil, Config{}); err == nil {
		t.Error("empty data accepted")
	}
}
