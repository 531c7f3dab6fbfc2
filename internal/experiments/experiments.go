// Package experiments reproduces every table and figure of the paper's
// analysis (§4) and evaluation (§6). Each experiment is a named runner that
// executes the real algorithms over scaled dataset clones, measures virtual
// time through the shared cost model and storage simulator, and renders the
// same rows/series the paper reports. See DESIGN.md for the per-experiment
// index and EXPERIMENTS.md for paper-vs-measured shapes.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/costmodel"
	"e2lshos/internal/dataset"
	"e2lshos/internal/diskindex"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
	"e2lshos/internal/memindex"
	"e2lshos/internal/report"
	"e2lshos/internal/srs"
)

// Env carries the run-wide configuration: dataset scaling, query counts and
// the cost model. The zero value is not usable; start from DefaultEnv.
type Env struct {
	// Scale multiplies the paper's dataset sizes (1.0 = full size).
	Scale float64
	// MinN / MaxN clamp per-dataset sizes after scaling.
	MinN, MaxN int
	// Queries is the number of queries per dataset.
	Queries int
	// Rho is the index growth exponent used for every dataset.
	Rho float64
	// TargetRatio is the accuracy level comparisons are made at (§3.2 uses
	// an overall ratio of 1.05).
	TargetRatio float64
	// Sigmas is the E2LSH candidate-budget sweep grid (accuracy knob).
	Sigmas []float64
	// SRSBudgetFracs is the SRS T' sweep grid, as fractions of n.
	SRSBudgetFracs []float64
	// Model is the shared CPU cost model.
	Model costmodel.CPUModel
	// Seed drives all randomized choices.
	Seed int64

	cache map[string]*Workload
}

// DefaultEnv returns the harness defaults: clones around 16k–64k objects,
// which keep the full suite runnable in minutes while preserving every
// shape. Scale up with -scale for larger runs.
func DefaultEnv() *Env {
	return &Env{
		Scale:          0.02,
		MinN:           8000,
		MaxN:           64000,
		Queries:        40,
		Rho:            0.28,
		TargetRatio:    1.05,
		Sigmas:         []float64{0.5, 1, 2, 4, 8, 16, 32, 64, 128},
		SRSBudgetFracs: []float64{0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2},
		Model:          costmodel.Default(),
		Seed:           1,
	}
}

// Workload bundles everything one dataset needs: the clone, ground truth,
// derived parameters and the built indexes.
type Workload struct {
	DS     *dataset.Dataset
	Params lsh.Params
	Mem    *memindex.Index
	SRS    *srs.Index

	disk *diskindex.Index
	gt   map[int][]ann.Result
}

// Workload materializes (and caches) the named dataset clone with its
// in-memory E2LSH and SRS indexes.
func (env *Env) Workload(name dataset.PaperName) (*Workload, error) {
	if env.cache == nil {
		env.cache = make(map[string]*Workload)
	}
	if ws, ok := env.cache[string(name)]; ok {
		return ws, nil
	}
	spec, err := dataset.PaperSpec(name, env.Scale, env.MinN, env.Queries)
	if err != nil {
		return nil, err
	}
	if spec.N > env.MaxN {
		spec.N = env.MaxN
	}
	ds, err := dataset.Generate(spec)
	if err != nil {
		return nil, err
	}
	ws, err := env.buildWorkload(ds)
	if err != nil {
		return nil, err
	}
	env.cache[string(name)] = ws
	return ws, nil
}

// buildWorkload derives parameters and builds the in-memory indexes over ds.
func (env *Env) buildWorkload(ds *dataset.Dataset) (*Workload, error) {
	p, err := env.DeriveParams(ds)
	if err != nil {
		return nil, err
	}
	mem, err := memindex.Build(ds.Vectors, p, memindex.Options{ShareProjections: true, Seed: env.Seed})
	if err != nil {
		return nil, err
	}
	srsCfg := srs.DefaultConfig()
	srsCfg.Seed = env.Seed
	srsCfg.UseEarlyStop = false // accuracy via T' alone (§3.3)
	srsIx, err := srs.Build(ds.Vectors, srsCfg)
	if err != nil {
		return nil, err
	}
	return &Workload{DS: ds, Params: p, Mem: mem, SRS: srsIx, gt: make(map[int][]ann.Result)}, nil
}

// DeriveParams derives the E2LSH parameters for a dataset with the env's
// rho, using sampled NN distances for the radius schedule.
func (env *Env) DeriveParams(ds *dataset.Dataset) (lsh.Params, error) {
	cfg := lsh.DefaultConfig()
	cfg.Rho = env.Rho
	rmin := dataset.NNDistanceQuantile(ds, 0.05, min(env.Queries, 30), env.Seed)
	if rmin <= 0 {
		rmin = 1
	}
	rmax := lsh.MaxRadius(ds.MaxAbs(), ds.Dim)
	return lsh.Derive(cfg, ds.N(), ds.Dim, rmin, rmax)
}

// GroundTruth returns (and caches) exact top-k answers for the workload.
func (ws *Workload) GroundTruth(k int) []ann.Result {
	if gt, ok := ws.gt[k]; ok {
		return gt
	}
	gt := dataset.GroundTruth(ws.DS, k)
	ws.gt[k] = gt
	return gt
}

// Disk returns (and caches) the E2LSHoS index of the workload, built into an
// in-memory block store.
func (ws *Workload) Disk(env *Env) (*diskindex.Index, error) {
	if ws.disk != nil {
		return ws.disk, nil
	}
	ix, err := diskindex.Build(ws.DS.Vectors, ws.Params, diskindex.Options{Seed: env.Seed}, blockstore.NewMem())
	if err != nil {
		return nil, err
	}
	ws.disk = ix
	return ix, nil
}

// searchMem answers one query on the in-memory reference under kn.
// Experiments run to completion, so there is no context to thread, and
// without one the in-memory ladder cannot fail.
func searchMem(s *memindex.Searcher, q []float32, kn ladder.Knobs) (ann.Result, ladder.Stats) {
	//lsh:ctxok experiments run to completion; nothing cancels them
	res, st, _ := s.Run(context.Background(), q, kn, nil)
	return res, st
}

// diskSearcher is either disk searcher: the reference or the wave.
type diskSearcher interface {
	Run(context.Context, []float32, ladder.Knobs, []ann.Neighbor) (ann.Result, diskindex.Stats, error)
}

// searchDisk is searchMem for a disk searcher.
func searchDisk(s diskSearcher, q []float32, kn ladder.Knobs) (ann.Result, diskindex.Stats, error) {
	//lsh:ctxok experiments run to completion; nothing cancels them
	return s.Run(context.Background(), q, kn, nil)
}

// Renderable is the common result interface: every experiment returns tables
// that can be printed or persisted.
type Renderable interface {
	Render() []*report.Table
}

// Runner executes one experiment.
type Runner func(env *Env) (Renderable, error)

// Registry maps experiment ids (DESIGN.md's per-experiment index) to
// runners.
var Registry = map[string]Runner{
	"table1":     func(env *Env) (Renderable, error) { return Table1(env) },
	"table2":     func(env *Env) (Renderable, error) { return Table2(env) },
	"table3":     func(env *Env) (Renderable, error) { return Table3(env) },
	"table4":     func(env *Env) (Renderable, error) { return Table4(env) },
	"table5":     func(env *Env) (Renderable, error) { return Table5(env) },
	"table6":     func(env *Env) (Renderable, error) { return Table6(env) },
	"fig2":       func(env *Env) (Renderable, error) { return Fig2(env) },
	"fig3":       func(env *Env) (Renderable, error) { return Fig3(env) },
	"fig4":       func(env *Env) (Renderable, error) { return Fig4(env) },
	"fig5":       func(env *Env) (Renderable, error) { return Fig5(env) },
	"fig6":       func(env *Env) (Renderable, error) { return Fig6(env) },
	"fig7":       func(env *Env) (Renderable, error) { return Fig7(env) },
	"fig8":       func(env *Env) (Renderable, error) { return Fig8(env) },
	"fig11":      func(env *Env) (Renderable, error) { return Fig11(env) },
	"fig12":      func(env *Env) (Renderable, error) { return Fig12(env) },
	"fig13":      func(env *Env) (Renderable, error) { return Fig13(env) },
	"fig14":      func(env *Env) (Renderable, error) { return Fig14(env) },
	"fig15":      func(env *Env) (Renderable, error) { return Fig15(env) },
	"fig16":      func(env *Env) (Renderable, error) { return Fig16(env) },
	"shards":     func(env *Env) (Renderable, error) { return Shards(env) },
	"sync":       func(env *Env) (Renderable, error) { return SyncComparison(env) },
	"cachesweep": func(env *Env) (Renderable, error) { return CacheSweep(env) },
	"qdsweep":    func(env *Env) (Renderable, error) { return QDSweep(env) },
	"ablation":   func(env *Env) (Renderable, error) { return Ablation(env) },
	"autotune":   func(env *Env) (Renderable, error) { return AutotuneSweep(env) },
}

// IDs returns the experiment ids in stable order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id and prints its tables to w.
func Run(env *Env, id string, w io.Writer) (Renderable, error) {
	runner, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	res, err := runner(env)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	for _, t := range res.Render() {
		t.Fprint(w)
	}
	return res, nil
}
