package experiments

import (
	"fmt"
	"slices"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/autotune"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
	"e2lshos/internal/diskindex"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
	"e2lshos/internal/report"
)

// AutotuneSweepResult measures what the per-query recall-target controller
// buys: mean N_IO and shadow-scored retained recall at each target, against
// the full-ladder baseline the self-recall model was trained on. The sweep
// is the PR-8 analogue of the sigma sweeps: the recall target is the new
// no-rebuild accuracy knob, and the rows show the I/O it releases.
type AutotuneSweepResult struct {
	Dataset string
	Rows    []AutotuneSweepRow
}

// AutotuneSweepRow is one recall target's measurements over the query set.
type AutotuneSweepRow struct {
	// RecallTarget is the per-query target; 0 is the untuned full-ladder
	// baseline row.
	RecallTarget float64
	// MeanIO is the mean per-query N_IO (table + bucket reads).
	MeanIO float64
	// Retained is the mean fraction of the full ladder's own answer the
	// tuned queries kept (shadow recall; 1.0 for the baseline row).
	Retained float64
	// P99US is the observed p99 per-query wall time in microseconds —
	// reported, not monotone-asserted, since wall timing is noisy at this
	// scale while N_IO is deterministic.
	P99US float64
	// Stopped counts queries the controller cut short of the full ladder.
	Stopped int
	// RoundsSkipped totals the ladder rounds the controller saved.
	RoundsSkipped int
}

// p99us returns the 99th-percentile of per-query durations in microseconds.
func p99us(durs []time.Duration) float64 {
	if len(durs) == 0 {
		return 0
	}
	slices.Sort(durs)
	idx := len(durs) * 99 / 100
	if idx >= len(durs) {
		idx = len(durs) - 1
	}
	return float64(durs[idx]) / float64(time.Microsecond)
}

// autotuneTargets is the swept recall-target grid, loosest first. Execution
// runs strictest first so that full-ladder observations folded in along the
// way (tuned queries that reach natural termination still train) can only
// help the looser targets stop earlier, preserving the monotone shape.
var autotuneTargets = []float64{0.8, 0.9, 0.95}

// autotuneWorkload is the bimodal geometry the recall-target stop harvests:
// ~10-point clusters with k = 10 queries put the last ranks of every answer
// in neighboring clusters far away, and wide buckets (W = 16) discover those
// far ranks many rounds before the certified (cR)² ball grows out to cover
// them. The ladder's tail is then a pure certification treadmill — complete,
// stable top-k with the natural (R,c)-NN stop still running rounds — which
// is exactly the slack the controller exists to reclaim. The spec is pinned
// rather than env-scaled because the treadmill only exists on this shape.
func autotuneWorkload(env *Env) (*dataset.Dataset, lsh.Params, error) {
	ds, err := dataset.Generate(dataset.Spec{
		Name: "autotune", N: 3000, Queries: 40, Dim: 16,
		Clusters: 300, Spread: 0.02, Seed: 11,
	})
	if err != nil {
		return nil, lsh.Params{}, err
	}
	cfg := lsh.DefaultConfig()
	cfg.C = 1.2 // fine ladder: many rounds for the treadmill tail
	cfg.W = 16  // wide buckets: discovery leads certification
	cfg.Sigma = 16
	rmin := dataset.NNDistanceQuantile(ds, 0.05, min(ds.NQ(), 30), env.Seed)
	if rmin <= 0 {
		rmin = 1
	}
	p, err := lsh.Derive(cfg, ds.N(), ds.Dim, rmin, lsh.MaxRadius(ds.MaxAbs(), ds.Dim))
	return ds, p, err
}

// retainedFrac scores a tuned answer against the full ladder's own answer:
// the fraction of the shadow result kept. An empty shadow retains trivially.
func retainedFrac(got, shadow ann.Result) float64 {
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

// AutotuneSweep trains the self-recall model on two full-ladder passes, then
// sweeps the recall target and reports mean N_IO and retained recall per
// target next to the full-ladder baseline.
func AutotuneSweep(env *Env) (*AutotuneSweepResult, error) {
	const k = 10
	ds, params, err := autotuneWorkload(env)
	if err != nil {
		return nil, err
	}
	ix, err := diskindex.Build(ds.Vectors, params, diskindex.Options{Seed: env.Seed}, blockstore.NewMem())
	if err != nil {
		return nil, err
	}
	s := ix.NewSearcher()
	// Exploration off: the sweep wants every tuned query stop-eligible so
	// the rows measure the policy, not the explore mix.
	tn := autotune.New(autotune.Config{MinTrain: 8, Explore: 1 << 20})

	// Two full-ladder passes train the model broadly enough to clear the
	// per-cell MinTrain gates; the last pass's answers are the shadows the
	// tuned rows are scored against, and its I/O is the baseline row.
	shadow := make([]ann.Result, ds.NQ())
	var baseIO int
	var baseDurs []time.Duration
	for pass := 0; pass < 2; pass++ {
		baseIO = 0
		baseDurs = baseDurs[:0]
		for qi, q := range ds.Queries {
			t0 := time.Now()
			res, st, err := searchDisk(s, q, ladder.Knobs{K: k, Tuner: tn, Admitted: t0})
			if err != nil {
				return nil, err
			}
			shadow[qi] = res
			baseIO += st.IOs()
			baseDurs = append(baseDurs, time.Since(t0))
		}
	}

	res := &AutotuneSweepResult{Dataset: ds.Name}
	// Strictest target first; see autotuneTargets.
	for i := len(autotuneTargets) - 1; i >= 0; i-- {
		target := autotuneTargets[i]
		row := AutotuneSweepRow{RecallTarget: target}
		ios, retained := 0, 0.0
		durs := make([]time.Duration, 0, ds.NQ())
		for qi, q := range ds.Queries {
			t0 := time.Now()
			kn := ladder.Knobs{K: k, Tuning: autotune.Tuning{RecallTarget: target}, Tuner: tn, Admitted: t0}
			got, st, err := searchDisk(s, q, kn)
			if err != nil {
				return nil, err
			}
			ios += st.IOs()
			retained += retainedFrac(got, shadow[qi])
			durs = append(durs, time.Since(t0))
			row.Stopped += st.RecallStopped
			row.RoundsSkipped += st.RoundsSkipped
		}
		row.MeanIO = float64(ios) / float64(ds.NQ())
		row.Retained = retained / float64(ds.NQ())
		row.P99US = p99us(durs)
		res.Rows = append([]AutotuneSweepRow{row}, res.Rows...)
	}
	res.Rows = append(res.Rows, AutotuneSweepRow{
		RecallTarget: 0,
		MeanIO:       float64(baseIO) / float64(ds.NQ()),
		Retained:     1,
		P99US:        p99us(baseDurs),
	})
	return res, nil
}

// Render implements Renderable.
func (r *AutotuneSweepResult) Render() []*report.Table {
	t := report.New(fmt.Sprintf("autotune: N_IO and p99 vs recall target (%s, shadow-scored)", r.Dataset),
		"Target", "Mean N_IO", "p99 µs", "Retained recall", "Stopped", "Rounds skipped")
	for _, row := range r.Rows {
		label := "full ladder"
		if row.RecallTarget > 0 {
			label = report.Num(row.RecallTarget)
		}
		t.AddRow(label, report.Num(row.MeanIO), report.Num(row.P99US), report.Num(row.Retained),
			report.Int(row.Stopped), report.Int(row.RoundsSkipped))
	}
	return []*report.Table{t}
}
