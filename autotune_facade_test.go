package e2lshos

import (
	"context"
	"slices"
	"testing"
	"time"

	"e2lshos/internal/autotune"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/diskindex"
	"e2lshos/internal/faultinject"
)

// autotuneDataset builds the geometry the recall-target stop harvests: small
// clusters (~10 points) with k = 10 queries make every answer bimodal — most
// of the top-k sits in the query's own cluster at tiny distances, the last
// ranks in neighboring clusters much further out. Wide buckets (W = 16)
// discover the far ranks many rounds before the certified ball (cR)² grows
// out to cover them, so the ladder's tail is a pure certification treadmill:
// the top-k is complete and stable while the natural (R,c)-NN stop keeps
// running rounds.
func autotuneDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := GenerateDataset(DatasetSpec{
		Name: "autotune", N: 3000, Queries: 40, Dim: 16,
		Clusters: 300, Spread: 0.02, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// autotuneConfig pairs the fine radius ladder (C = 1.2, many rounds) with
// the wide buckets (W = 16) that give the ladder a harvestable treadmill
// tail on autotuneDataset's bimodal geometry.
func autotuneConfig() Config { return Config{Sigma: 16, C: 1.2, W: 16} }

// retainedRecall scores an early-stopped query against the full ladder's own
// answer: the fraction of the shadow result the tuned result kept. Unlike
// Recall's fixed /k denominator it does not punish agreement on queries
// whose full ladder itself found fewer than k neighbors — stopping early
// loses nothing there.
func retainedRecall(got, shadow Result) float64 {
	if len(shadow.Neighbors) == 0 {
		return 1
	}
	hits := 0
	for _, nb := range got.Neighbors {
		for _, sh := range shadow.Neighbors {
			if nb.ID == sh.ID {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(shadow.Neighbors))
}

// TestRecallTargetCutsIOs is the tentpole acceptance test: with a warm
// self-recall model, recall_target=0.9 queries must spend fewer I/Os than
// the full ladder while their shadow-scored recall stays at or above the
// target.
func TestRecallTargetCutsIOs(t *testing.T) {
	ctx := context.Background()
	d := autotuneDataset(t)
	const k = 10
	ix, err := NewStorageIndex(d.Vectors, autotuneConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Explore effectively off so the tuned phase below is all early-stop
	// eligible; the warmup phase trains the model.
	ix.tn.Store(autotune.New(autotune.Config{MinTrain: 8, Explore: 1 << 20}))

	// Full-ladder passes: train the model (two passes so the per-cell
	// observation counts clear MinTrain broadly) and record the shadow
	// answers the early-stopped queries are scored against.
	var baseSt Stats
	shadow := make([]Result, d.NQ())
	for pass := 0; pass < 2; pass++ {
		baseSt = Stats{}
		for qi, q := range d.Queries {
			res, st, err := ix.Search(ctx, q, WithK(k))
			if err != nil {
				t.Fatal(err)
			}
			shadow[qi] = res
			baseSt.Merge(st)
		}
	}
	if got := ix.autotuneSnapshot(); got == nil || got.Ladders < 8 {
		t.Fatalf("warmup trained %+v ladders, want >= 8", got)
	}

	var tunedSt Stats
	var recallSum float64
	for qi, q := range d.Queries {
		res, st, err := ix.Search(ctx, q, WithK(k), WithTuning(SearchTuning{RecallTarget: 0.9}))
		if err != nil {
			t.Fatal(err)
		}
		tunedSt.Merge(st)
		recallSum += retainedRecall(res, shadow[qi])
	}

	if tunedSt.RoundsSkipped == 0 {
		t.Error("recall-target queries never stopped the ladder early")
	}
	if tuned, base := tunedSt.MeanIOs(), baseSt.MeanIOs(); tuned >= base {
		t.Errorf("tuned mean N_IO %.1f did not beat full-ladder %.1f", tuned, base)
	}
	if mean := recallSum / float64(d.NQ()); mean < 0.9 {
		t.Errorf("tuned shadow recall %.3f below the 0.9 target", mean)
	}
}

// wallStorageIndex builds a StorageIndex whose every block read stalls for
// stall on the wall clock, so latency budgets have real work to cut.
func wallStorageIndex(t *testing.T, d *Dataset, stall time.Duration) *StorageIndex {
	t.Helper()
	cfg := Config{Sigma: 16}
	p, seed, tableBits, err := cfg.derive(d.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	slow := faultinject.Wrap(blockstore.NewMemBackend(), faultinject.Schedule{SlowRead: 1, SlowDelay: stall})
	ix, err := diskindex.Build(d.Vectors, p, diskindex.Options{Seed: seed, TableBits: tableBits}, blockstore.NewWithBackend(slow))
	if err != nil {
		t.Fatal(err)
	}
	return &StorageIndex{ix: ix}
}

// TestLatencyBudgetBoundsTail: on a device-timed store under a latency
// budget well below the untuned mean, the controller degrades and stops
// mid-query so that nearly every query still answers, and the tuned tail
// stays below the untuned one.
func TestLatencyBudgetBoundsTail(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing test")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the compute/I-O balance the timing bounds depend on")
	}
	ctx := context.Background()
	d := autotuneDataset(t)
	const k = 10
	// 100µs is the shortest stall the fault injector sleeps rather than
	// spins: the reads leave the processor, as a device's do, and their
	// time dominates compute.
	ix := wallStorageIndex(t, d, 100*time.Microsecond)
	ix.tn.Store(autotune.New(autotune.Config{MinTrain: 4}))

	// Warmup + baseline: full-ladder wall times, which also train the
	// per-round duration EWMA the budget controller predicts with.
	base := make([]time.Duration, 0, 2*d.NQ())
	for round := 0; round < 2; round++ {
		for _, q := range d.Queries {
			t0 := time.Now()
			if _, _, err := ix.Search(ctx, q, WithK(k)); err != nil {
				t.Fatal(err)
			}
			base = append(base, time.Since(t0))
		}
	}
	slices.Sort(base)
	p50 := base[len(base)/2]
	budget := p50 / 2
	if budget <= 0 {
		t.Fatalf("degenerate baseline p50 %v", p50)
	}

	var tunedSt Stats
	served := 0
	tuned := make([]time.Duration, 0, d.NQ())
	for _, q := range d.Queries {
		t0 := time.Now()
		res, st, err := ix.Search(ctx, q, WithK(k), WithTuning(SearchTuning{LatencyBudget: budget}))
		if err != nil {
			t.Fatal(err)
		}
		tuned = append(tuned, time.Since(t0))
		tunedSt.Merge(st)
		if len(res.Neighbors) > 0 {
			served++
		}
	}

	// Degradation, not shedding: nearly every query still answers.
	if minServed := (d.NQ()*95 + 99) / 100; served < minServed {
		t.Errorf("only %d/%d budgeted queries answered, want >= %d", served, d.NQ(), minServed)
	}
	if tunedSt.BudgetExhausted == 0 && tunedSt.DegradedKnobs == 0 {
		t.Error("a budget at half the baseline p50 triggered no controller action")
	}
	slices.Sort(tuned)
	idx := len(tuned) * 99 / 100
	if idx >= len(tuned) {
		idx = len(tuned) - 1
	}
	tunedP99, baseP99 := tuned[idx], base[len(base)-1-len(base)/100]
	// The stop decision lands between rounds, so one in-flight round can
	// overshoot; a generous multiple keeps the bound meaningful without
	// making the test timing-flaky.
	if limit := baseP99; tunedP99 > limit {
		t.Errorf("budgeted p99 %v above untuned p99 %v (budget %v)", tunedP99, limit, budget)
	}
}
