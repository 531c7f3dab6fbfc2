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

	// pass appends the wall time of one search of every query under opts
	// to dst, and returns the searches' summed Stats and how many answered.
	pass := func(dst []time.Duration, opts ...SearchOption) ([]time.Duration, Stats, int) {
		var sum Stats
		answered := 0
		for _, q := range d.Queries {
			t0 := time.Now()
			res, st, err := ix.Search(ctx, q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			dst = append(dst, time.Since(t0))
			sum.Merge(st)
			if len(res.Neighbors) > 0 {
				answered++
			}
		}
		return dst, sum, answered
	}
	// Warmup: full-ladder wall times, which also train the per-round
	// duration EWMA the budget controller predicts with, and set the budget
	// at half their median.
	warm, _, _ := pass(nil, WithK(k))
	slices.Sort(warm)
	budget := warm[len(warm)/2] / 2
	if budget <= 0 {
		t.Fatalf("degenerate warmup p50 %v", warm[len(warm)/2])
	}

	// Untuned and budgeted passes alternate, so a change in the machine's
	// speed lands on both sides alike, until each side holds passes·NQ
	// samples: enough that the p99 index is not the maximum.
	const passes = 3
	var base, tuned []time.Duration
	var tunedSt Stats
	served := 0
	for i := 0; i < passes; i++ {
		base, _, _ = pass(base, WithK(k))
		var st Stats
		var answered int
		tuned, st, answered = pass(tuned, WithK(k), WithTuning(SearchTuning{LatencyBudget: budget}))
		tunedSt.Merge(st)
		served += answered
	}

	// Degradation, not shedding: nearly every query still answers.
	if minServed := (len(tuned)*95 + 99) / 100; served < minServed {
		t.Errorf("only %d/%d budgeted queries answered, want >= %d", served, len(tuned), minServed)
	}
	if tunedSt.BudgetExhausted == 0 && tunedSt.DegradedKnobs == 0 {
		t.Error("a budget at half the warmup p50 triggered no controller action")
	}
	p99 := func(ds []time.Duration) time.Duration {
		slices.Sort(ds)
		return ds[len(ds)*99/100]
	}
	tunedP99, baseP99 := p99(tuned), p99(base)
	t.Logf("%d samples a side: budgeted p99 %v, untuned p99 %v (budget %v)", len(tuned), tunedP99, baseP99, budget)
	// The bound has no slack: the budgeted p99 may not exceed the untuned
	// one. A stop lands between rounds, so a budgeted query can overshoot
	// its budget by one round, but not the untuned ladder it cuts short.
	if tunedP99 > baseP99 {
		t.Errorf("budgeted p99 %v above untuned p99 %v (budget %v)", tunedP99, baseP99, budget)
	}
}
