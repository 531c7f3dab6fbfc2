// Package srs implements the SRS baseline (Sun et al., PVLDB 8(1), 2014) the
// paper compares against: c-ANNS in high dimensions with a tiny index.
//
// SRS projects every database object into a tiny m-dimensional space with
// p-stable (Gaussian) projections, indexes the projections in an R-tree, and
// answers a query by scanning projected points in ascending projected
// distance while verifying true distances, until either T' points have been
// verified or the chi-square early-termination test fires. The paper runs
// SRS fully in memory and controls accuracy through T' (§3.3).
package srs

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"e2lshos/internal/ann"
	"e2lshos/internal/rtree"
	"e2lshos/internal/vecmath"
)

// Config carries the SRS parameters used in the paper's evaluation.
type Config struct {
	// ProjDim is the projected dimensionality m. The paper found m = 8 works
	// well across all datasets (§3.3).
	ProjDim int
	// C is the approximation ratio. The paper sets c = 4 for SRS, equivalent
	// to c = 2 in E2LSH (§3.3), since E2LSH solves c²-ANNS.
	C float64
	// PTau is the confidence threshold of the early-termination test: stop
	// when an unseen better-than-d_k/c point would already have been seen
	// with probability at least PTau.
	PTau float64
	// UseEarlyStop enables the chi-square early-termination test. The
	// experiment harness disables it and drives accuracy purely through the
	// T' budget, matching §3.3 ("we control the accuracy by varying the
	// maximum number of data points to be checked").
	UseEarlyStop bool
	// Fanout overrides the R-tree fanout; 0 uses the package default.
	Fanout int
	// Seed drives projection generation.
	Seed int64
}

// DefaultConfig returns the paper-aligned configuration.
func DefaultConfig() Config {
	return Config{ProjDim: 8, C: 4, PTau: 0.9, UseEarlyStop: true, Seed: 1}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	switch {
	case c.ProjDim <= 0:
		return fmt.Errorf("srs: ProjDim must be positive, got %d", c.ProjDim)
	case c.C <= 1:
		return fmt.Errorf("srs: approximation ratio must exceed 1, got %v", c.C)
	case c.UseEarlyStop && (c.PTau <= 0 || c.PTau >= 1):
		return fmt.Errorf("srs: PTau must be in (0,1), got %v", c.PTau)
	}
	return nil
}

// Index is a frozen SRS index.
type Index struct {
	cfg  Config
	dim  int
	data [][]float32
	// proj holds the projected points, one slab row per object.
	proj     [][]float32
	projSlab []float32
	// a holds the ProjDim×dim projection matrix in vecmath's row-panel
	// GEMV layout; one MatVec projects a vector into all ProjDim
	// coordinates (the SRS scan kernel's batched form).
	a    *vecmath.Panels
	tree *rtree.Tree
}

// Build constructs the SRS index over data.
func Build(data [][]float32, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("srs: empty dataset")
	}
	dim := len(data[0])
	if dim == 0 {
		return nil, fmt.Errorf("srs: zero-dimensional data")
	}
	ix := &Index{cfg: cfg, dim: dim, data: data}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]float32, cfg.ProjDim*dim)
	for i := range rows {
		rows[i] = float32(rng.NormFloat64())
	}
	ix.a = vecmath.PackPanels(rows, cfg.ProjDim, dim)
	ix.projSlab = make([]float32, len(data)*cfg.ProjDim)
	ix.proj = make([][]float32, len(data))
	scratch := make([]float64, cfg.ProjDim)
	for i, v := range data {
		if len(v) != dim {
			return nil, fmt.Errorf("srs: object %d has dim %d, want %d", i, len(v), dim)
		}
		row := ix.projSlab[i*cfg.ProjDim : (i+1)*cfg.ProjDim]
		ix.project(v, scratch, row)
		ix.proj[i] = row
	}
	tree, err := rtree.Build(ix.proj, rtree.Options{Fanout: cfg.Fanout})
	if err != nil {
		return nil, err
	}
	ix.tree = tree
	return ix, nil
}

// project fills out with the ProjDim Gaussian projections of v, computed as
// one MatVec through scratch (length ProjDim).
func (ix *Index) project(v []float32, scratch []float64, out []float32) {
	ix.a.MatVec(scratch, v)
	for j, p := range scratch {
		out[j] = float32(p)
	}
}

// Config returns the build configuration.
func (ix *Index) Config() Config { return ix.cfg }

// IndexBytes estimates the DRAM footprint of the SRS index: the projected
// table plus R-tree nodes. This is the paper's "Index mem" column for SRS
// (Table 6).
func (ix *Index) IndexBytes() int64 {
	projBytes := int64(len(ix.projSlab)) * 4
	// Per node: flattened box (2*m float64) + children slice (~fanout int32).
	nodeBytes := int64(ix.tree.NumNodes()) * int64(2*ix.cfg.ProjDim*8+rtree.DefaultNodeFanout*4)
	return projBytes + nodeBytes
}

// Stats records the work one query performed, in the units the shared cost
// model charges for.
type Stats struct {
	// NodesVisited counts R-tree nodes expanded.
	NodesVisited int
	// EntriesScanned counts projected boxes/points evaluated inside nodes.
	EntriesScanned int
	// Checked counts full-dimensional distance verifications.
	Checked int
	// EarlyStopped reports whether the chi-square test (rather than the T'
	// budget or tree exhaustion) ended the scan.
	EarlyStopped bool
}

// Search answers a top-k query, verifying at most maxCheck true distances
// (the paper's T'). maxCheck <= 0 means no budget, scanning until the early
// termination test fires or the tree is exhausted.
func (ix *Index) Search(q []float32, k, maxCheck int) (ann.Result, Stats) {
	//lsh:ctxok ctx-free convenience wrapper; cancellation lives in SearchContext
	res, st, _ := ix.SearchContext(context.Background(), q, k, maxCheck, ix.cfg.UseEarlyStop)
	return res, st
}

// SearchContext is Search with cancellation and an explicit early-stop
// switch; it builds a throwaway Searcher, so callers issuing many queries
// should hold one Searcher per worker instead.
func (ix *Index) SearchContext(ctx context.Context, q []float32, k, maxCheck int, earlyStop bool) (ann.Result, Stats, error) {
	return ix.NewSearcher().SearchContext(ctx, q, k, maxCheck, earlyStop)
}

// Searcher holds per-goroutine scratch state for querying: the projection
// buffers, the R-tree iterator (typed frontier heap included) and the
// reused top-k accumulator, so the SearchInto path's steady state allocates
// nothing per query. Not safe for concurrent use; create one per worker.
type Searcher struct {
	ix      *Index
	qProj   []float32
	scratch []float64
	it      rtree.Iterator
	topk    *ann.TopK
}

// NewSearcher returns a fresh searcher over the index.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{
		ix:      ix,
		qProj:   make([]float32, ix.cfg.ProjDim),
		scratch: make([]float64, ix.cfg.ProjDim),
	}
}

// SearchContext answers one query; see Index.SearchContext for the
// methodology switches. The paper's §3.3 drives accuracy purely through the
// T' budget with the chi-square test off, so callers owning the budget pass
// earlyStop=false. SRS has no radius ladder, so ctx is polled every few
// dozen verifications during the projected scan. On cancellation it returns
// the neighbors accumulated so far with ctx.Err().
func (s *Searcher) SearchContext(ctx context.Context, q []float32, k, maxCheck int, earlyStop bool) (ann.Result, Stats, error) {
	st, err := s.search(ctx, q, k, maxCheck, earlyStop)
	return s.topk.ResultSq(), st, err
}

// SearchInto is SearchContext with caller-owned result backing: the
// returned neighbors are appended into dst[:0].
func (s *Searcher) SearchInto(ctx context.Context, q []float32, k, maxCheck int, earlyStop bool, dst []ann.Neighbor) (ann.Result, Stats, error) {
	st, err := s.search(ctx, q, k, maxCheck, earlyStop)
	return ann.Result{Neighbors: s.topk.AppendResultSq(dst[:0])}, st, err
}

// search runs the projected scan, leaving the winners (keyed by squared
// distance) in s.topk. Verification is pruned against the current k-th
// squared distance (exact; see vecmath.SqDistBounded); the early-stop test
// recovers the true k-th distance with one square root per check.
func (s *Searcher) search(ctx context.Context, q []float32, k, maxCheck int, earlyStop bool) (Stats, error) {
	ix := s.ix
	if len(q) != ix.dim {
		panic(fmt.Sprintf("srs: query dim %d, index dim %d", len(q), ix.dim))
	}
	var st Stats
	ix.project(q, s.scratch, s.qProj)
	ix.tree.ResetIterator(&s.it, s.qProj)
	it := &s.it
	if s.topk == nil {
		s.topk = ann.NewTopK(k)
	} else {
		s.topk.Reset(k)
	}
	topk := s.topk
	//lsh:ladder
	for {
		if st.Checked&63 == 0 {
			if err := ctx.Err(); err != nil {
				ts := it.Stats()
				st.NodesVisited = ts.NodesVisited
				st.EntriesScanned = ts.EntriesScanned
				return st, err
			}
		}
		if maxCheck > 0 && st.Checked >= maxCheck {
			break
		}
		id, projDist, ok := it.Next()
		if !ok {
			break
		}
		if sq, ok := vecmath.SqDistBounded(ix.data[id], q, topk.Worst()); ok {
			topk.Push(uint32(id), sq)
		}
		st.Checked++
		if earlyStop && topk.Full() && ix.earlyStop(projDist, math.Sqrt(topk.KthDist())) {
			st.EarlyStopped = true
			break
		}
	}
	ts := it.Stats()
	st.NodesVisited = ts.NodesVisited
	st.EntriesScanned = ts.EntriesScanned
	return st, nil
}

// earlyStop implements the SRS stopping test: with the projected frontier at
// projDist and current k-th true distance dk, any unseen object closer than
// dk/c would already have appeared in the projected scan with probability
// Ψ_m(c²·projDist²/dk²); stop once that exceeds PTau.
func (ix *Index) earlyStop(projDist, dk float64) bool {
	if dk == 0 {
		return true
	}
	if math.IsInf(dk, 1) {
		return false
	}
	x := (ix.cfg.C * projDist / dk)
	return vecmath.ChiSquareCDF(x*x, ix.cfg.ProjDim) >= ix.cfg.PTau
}
