// Package qalsh implements the QALSH baseline (Huang et al., PVLDB 9(1),
// 2015) the paper compares against: query-aware locality sensitive hashing
// with collision counting and virtual rehashing.
//
// QALSH projects every object onto m random lines h_a(o) = a·o with no
// offset, indexing each projection in a B+-tree. At query time the hash
// buckets are anchored *at the query*: for search radius R, an object
// collides on line a when |h_a(o) − h_a(q)| ≤ w·R/2. An object whose
// collision count across the m lines reaches the threshold l becomes a
// candidate and has its true distance verified. Radii grow geometrically
// (virtual rehashing) by widening the windows in place, so each B+-tree is
// scanned outward from the query's projection exactly once.
package qalsh

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"e2lshos/internal/ann"
	"e2lshos/internal/bptree"
	"e2lshos/internal/lsh"
	"e2lshos/internal/vecmath"
)

// Config carries the QALSH parameters. The paper adjusts accuracy through
// the approximation ratio c alone (§3.3).
type Config struct {
	// C is the approximation ratio of each (R,c)-NN round.
	C float64
	// W is the bucket width anchored at the query. QALSH recommends ~2.719
	// for c = 2.
	W float64
	// Delta is the allowed failure probability; the paper sets the success
	// probability to 1/2 − 1/e, i.e. Delta = 1/2 + 1/e.
	Delta float64
	// BetaFrac bounds the candidate verifications per query to BetaFrac·n
	// (QALSH's β). Typical value 0.01 (i.e. 100/n for n = 10⁴).
	BetaFrac float64
	// MaxRadii caps the virtual rehashing ladder.
	MaxRadii int
	// Order overrides the B+-tree order; 0 uses the package default.
	Order int
	// Seed drives projection generation.
	Seed int64
}

// DefaultConfig returns the paper-aligned configuration.
func DefaultConfig() Config {
	return Config{C: 2, W: 2.719, Delta: 0.5 + 1/math.E, BetaFrac: 0.02, MaxRadii: 16, Seed: 1}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	switch {
	case c.C <= 1:
		return fmt.Errorf("qalsh: approximation ratio must exceed 1, got %v", c.C)
	case c.W <= 0:
		return fmt.Errorf("qalsh: bucket width must be positive, got %v", c.W)
	case c.Delta <= 0 || c.Delta >= 1:
		return fmt.Errorf("qalsh: Delta must be in (0,1), got %v", c.Delta)
	case c.BetaFrac <= 0 || c.BetaFrac > 1:
		return fmt.Errorf("qalsh: BetaFrac must be in (0,1], got %v", c.BetaFrac)
	case c.MaxRadii <= 0:
		return fmt.Errorf("qalsh: MaxRadii must be positive, got %d", c.MaxRadii)
	}
	return nil
}

// collisionProb is the query-aware collision probability for two points at
// distance s under window half-width w/2 (per unit radius):
// P[|a·(o−q)| ≤ w/2] with a·(o−q) ~ N(0, s²), i.e. 2Φ(w/(2s)) − 1.
func collisionProb(w, s float64) float64 {
	if s <= 0 {
		return 1
	}
	return 2*vecmath.NormalCDF(w/(2*s)) - 1
}

// Params are the derived QALSH parameters.
type Params struct {
	M     int     // number of hash functions / B+-trees
	L     int     // collision threshold
	Alpha float64 // collision threshold ratio l/m
	P1    float64 // collision probability at distance R
	P2    float64 // collision probability at distance cR
	Beta  int     // candidate verification budget
}

// deriveParams computes m, l and the budget from the QALSH formulas:
// with η = √(ln(2/β)) and ξ = √(ln(1/δ)),
// α = (η·p1 + ξ·p2)/(η + ξ) and m = ⌈(η + ξ)²/(2(p1 − p2)²)⌉.
func deriveParams(cfg Config, n int) (Params, error) {
	p1 := collisionProb(cfg.W, 1)
	p2 := collisionProb(cfg.W, cfg.C)
	if p1 <= p2 {
		return Params{}, fmt.Errorf("qalsh: degenerate probabilities p1=%v p2=%v", p1, p2)
	}
	beta := int(math.Ceil(cfg.BetaFrac * float64(n)))
	if beta < 1 {
		beta = 1
	}
	eta := math.Sqrt(math.Log(2 / cfg.BetaFrac))
	xi := math.Sqrt(math.Log(1 / cfg.Delta))
	alpha := (eta*p1 + xi*p2) / (eta + xi)
	m := int(math.Ceil((eta + xi) * (eta + xi) / (2 * (p1 - p2) * (p1 - p2))))
	if m < 1 {
		m = 1
	}
	l := int(math.Ceil(alpha * float64(m)))
	if l < 1 {
		l = 1
	}
	if l > m {
		l = m
	}
	return Params{M: m, L: l, Alpha: alpha, P1: p1, P2: p2, Beta: beta}, nil
}

// Index is a frozen QALSH index.
type Index struct {
	cfg    Config
	params Params
	dim    int
	data   [][]float32
	radii  []float64
	// a holds the m×dim projection matrix in vecmath's row-panel GEMV
	// layout; one MatVec computes a vector's m line projections.
	a     *vecmath.Panels
	trees []*bptree.Tree
}

// Build constructs a QALSH index over data. rmin and rmax bound the virtual
// rehashing ladder exactly as for E2LSH.
func Build(data [][]float32, cfg Config, rmin, rmax float64) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("qalsh: empty dataset")
	}
	dim := len(data[0])
	if dim == 0 {
		return nil, fmt.Errorf("qalsh: zero-dimensional data")
	}
	params, err := deriveParams(cfg, len(data))
	if err != nil {
		return nil, err
	}
	ix := &Index{
		cfg:    cfg,
		params: params,
		dim:    dim,
		data:   data,
		radii:  lsh.RadiusSchedule(cfg.C, rmin, rmax, cfg.MaxRadii),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]float32, params.M*dim)
	for i := range rows {
		rows[i] = float32(rng.NormFloat64())
	}
	ix.a = vecmath.PackPanels(rows, params.M, dim)
	for i, v := range data {
		if len(v) != dim {
			return nil, fmt.Errorf("qalsh: object %d has dim %d, want %d", i, len(v), dim)
		}
	}
	// Project panel-wise: one MatVec per object over PanelRows lines at a
	// time, bulk-loading those trees before moving on. Batching keeps the
	// GEMV benefit while bounding peak key memory to PanelRows columns
	// instead of all m at once.
	const panel = vecmath.PanelRows
	keys := make([][]float64, 0, panel)
	vals := make([]uint32, len(data))
	for i := range vals {
		vals[i] = uint32(i)
	}
	proj := make([]float64, panel)
	for j0 := 0; j0 < params.M; j0 += panel {
		j1 := min(j0+panel, params.M)
		sub := vecmath.PackPanels(rows[j0*dim:j1*dim], j1-j0, dim)
		for len(keys) < j1-j0 {
			keys = append(keys, make([]float64, len(data)))
		}
		for i, v := range data {
			sub.MatVec(proj[:j1-j0], v)
			for j := 0; j < j1-j0; j++ {
				keys[j][i] = proj[j]
			}
		}
		for j := j0; j < j1; j++ {
			tree, err := bptree.BulkLoad(keys[j-j0], vals, bptree.Options{Order: cfg.Order})
			if err != nil {
				return nil, err
			}
			ix.trees = append(ix.trees, tree)
		}
	}
	return ix, nil
}

// Params returns the derived parameters.
func (ix *Index) Params() Params { return ix.params }

// Config returns the build configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Radii returns the virtual rehashing ladder.
func (ix *Index) Radii() []float64 { return ix.radii }

// IndexBytes estimates the DRAM footprint: m B+-trees of n (float64, uint32)
// entries each, plus internal nodes (~25% overhead).
func (ix *Index) IndexBytes() int64 {
	perEntry := int64(12)
	return int64(ix.params.M) * int64(len(ix.data)) * perEntry * 5 / 4
}

// Stats records the work one query performed.
type Stats struct {
	// Radii is the number of virtual rehashing rounds executed.
	Radii int
	// EntriesScanned counts B+-tree entries consumed across all windows.
	EntriesScanned int
	// Checked counts true-distance verifications.
	Checked int
}

// Searcher holds per-goroutine scratch state for querying: collision
// counters, epoch stamps, the projection buffer, the per-line B+-tree
// cursor arenas and the reused top-k accumulator, so the SearchInto path
// allocates nothing per query after warmup. Not safe for concurrent use;
// create one per worker.
type Searcher struct {
	ix     *Index
	counts []int32
	epochs []uint32
	epoch  uint32
	qProj  []float64
	topk   *ann.TopK
	asc    []bptree.Cursor
	desc   []bptree.Cursor
	ascOK  []bool
	descOK []bool
}

// NewSearcher returns a fresh searcher over the index.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{
		ix:     ix,
		counts: make([]int32, len(ix.data)),
		epochs: make([]uint32, len(ix.data)),
		qProj:  make([]float64, ix.params.M),
		asc:    make([]bptree.Cursor, ix.params.M),
		desc:   make([]bptree.Cursor, ix.params.M),
		ascOK:  make([]bool, ix.params.M),
		descOK: make([]bool, ix.params.M),
	}
}

// Search answers a top-k query with QALSH's collision counting procedure.
func (s *Searcher) Search(q []float32, k int) (ann.Result, Stats) {
	//lsh:ctxok ctx-free convenience wrapper; cancellation lives in SearchContext
	res, st, _ := s.SearchContext(context.Background(), q, k)
	return res, st
}

// SearchContext is Search with cancellation: ctx is checked between virtual
// rehashing rounds, so a long ladder walk aborts cleanly. On cancellation it
// returns the neighbors accumulated so far together with ctx.Err().
func (s *Searcher) SearchContext(ctx context.Context, q []float32, k int) (ann.Result, Stats, error) {
	st, err := s.search(ctx, q, k)
	return s.topk.ResultSq(), st, err
}

// SearchInto is SearchContext with caller-owned result backing: the
// returned neighbors are appended into dst[:0].
func (s *Searcher) SearchInto(ctx context.Context, q []float32, k int, dst []ann.Neighbor) (ann.Result, Stats, error) {
	st, err := s.search(ctx, q, k)
	return ann.Result{Neighbors: s.topk.AppendResultSq(dst[:0])}, st, err
}

// search runs the virtual rehashing ladder, leaving the winners (keyed by
// squared distance) in s.topk.
func (s *Searcher) search(ctx context.Context, q []float32, k int) (Stats, error) {
	ix := s.ix
	if len(q) != ix.dim {
		panic(fmt.Sprintf("qalsh: query dim %d, index dim %d", len(q), ix.dim))
	}
	var st Stats
	s.epoch++
	if s.epoch == 0 {
		clear(s.epochs)
		s.epoch = 1
	}
	ix.a.MatVec(s.qProj, q)
	// One ascending and one descending cursor per hash line, primed once and
	// consumed monotonically as windows widen: virtual rehashing. The
	// cursors live in searcher-owned arenas and are reseeded in place.
	asc, desc := s.asc, s.desc
	ascOK, descOK := s.ascOK, s.descOK
	//lsh:ctxok bounded cursor priming, M iterations before the ladder starts
	for j := range asc {
		ix.trees[j].SeekAscendInto(&asc[j], s.qProj[j])
		ix.trees[j].SeekDescendInto(&desc[j], s.qProj[j])
		ascOK[j] = asc[j].Next()
		descOK[j] = desc[j].Next()
	}
	if s.topk == nil {
		s.topk = ann.NewTopK(k)
	} else {
		s.topk.Reset(k)
	}
	topk := s.topk
	budget := ix.params.Beta
	if budget < k {
		budget = k
	}
	threshold := int32(ix.params.L)

	//lsh:ladder
	for _, radius := range ix.radii {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		st.Radii++
		half := ix.cfg.W * radius / 2
		for j := 0; j < ix.params.M; j++ {
			lo, hi := s.qProj[j]-half, s.qProj[j]+half
			for ascOK[j] && asc[j].Key() <= hi {
				st.EntriesScanned++
				if s.bump(asc[j].Value(), threshold) {
					s.verify(q, asc[j].Value(), topk, &st)
				}
				ascOK[j] = asc[j].Next()
				if st.Checked >= budget {
					break
				}
			}
			for descOK[j] && desc[j].Key() >= lo {
				st.EntriesScanned++
				if s.bump(desc[j].Value(), threshold) {
					s.verify(q, desc[j].Value(), topk, &st)
				}
				descOK[j] = desc[j].Next()
				if st.Checked >= budget {
					break
				}
			}
			if st.Checked >= budget {
				break
			}
		}
		if st.Checked >= budget {
			break
		}
		cr := ix.cfg.C * radius
		if topk.Full() && topk.CountWithin(cr*cr) >= k {
			break
		}
	}
	return st, nil
}

// bump increments the collision count of id and reports whether it just
// reached the candidate threshold (so each object is verified exactly once).
//
//lsh:hotpath
func (s *Searcher) bump(id uint32, threshold int32) bool {
	if s.epochs[id] != s.epoch {
		s.epochs[id] = s.epoch
		s.counts[id] = 0
	}
	s.counts[id]++
	return s.counts[id] == threshold
}

// verify checks one candidate's true distance with partial-distance pruning
// against the current k-th squared distance (exact; see
// vecmath.SqDistBounded).
//
//lsh:hotpath
func (s *Searcher) verify(q []float32, id uint32, topk *ann.TopK, st *Stats) {
	if sq, ok := vecmath.SqDistBounded(s.ix.data[id], q, topk.Worst()); ok {
		topk.Push(id, sq)
	}
	st.Checked++
}
