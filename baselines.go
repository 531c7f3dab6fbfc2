package e2lshos

import (
	"context"
	"fmt"

	"e2lshos/internal/ann"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
	"e2lshos/internal/qalsh"
	"e2lshos/internal/srs"
)

// SRSIndex is the SRS small-index baseline (in-memory). Baselines exist for
// the paper's comparison, not for SLO serving: they take no autotune
// controller.
type SRSIndex struct {
	telem
	searchers
	ix *srs.Index
}

// NewSRSIndex builds an SRS index over data. seed 0 means 1.
func NewSRSIndex(data [][]float32, seed int64) (*SRSIndex, error) {
	cfg := srs.DefaultConfig()
	if seed != 0 {
		cfg.Seed = seed
	}
	ix, err := srs.Build(data, cfg)
	if err != nil {
		return nil, err
	}
	return &SRSIndex{ix: ix}, nil
}

// Search answers a top-k query, verifying at most WithBudget candidates
// (the paper's T'); budget zero scans until the early-termination test
// fires. It honors WithK and WithBudget.
func (s *SRSIndex) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	return engineSearch(ctx, s, nil, q, opts)
}

// BatchSearch answers queries on a worker pool; see Engine.
func (s *SRSIndex) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	return engineBatchSearch(ctx, s, nil, queries, opts)
}

// IndexBytes reports the (small) index footprint.
func (s *SRSIndex) IndexBytes() int64 { return s.ix.IndexBytes() }

func (s *SRSIndex) newQuerier() querier { return srsQuerier{s: s.ix.NewSearcher()} }

type srsQuerier struct {
	s *srs.Searcher
}

func (s srsQuerier) Run(ctx context.Context, q []float32, kn ladder.Knobs, dst []ann.Neighbor) (Result, Stats, error) {
	// A caller-supplied budget owns the accuracy knob (§3.3), so the
	// chi-square early stop only runs unbudgeted.
	res, st, err := s.s.SearchInto(ctx, q, kn.K, kn.Budget, kn.Budget <= 0, dst)
	return res, srsStats(st), err
}

// srsStats reports one SRS query in the facade's counters.
func srsStats(st srs.Stats) Stats {
	out := Stats{
		Queries:        1,
		EntriesScanned: st.EntriesScanned,
		Checked:        st.Checked,
		NodesVisited:   st.NodesVisited,
	}
	if st.EarlyStopped {
		out.EarlyStopped = 1
	}
	return out
}

// QALSHIndex is the QALSH small-index baseline (in-memory).
type QALSHIndex struct {
	telem
	searchers
	ix *qalsh.Index
}

// NewQALSHIndex builds a QALSH index over data with approximation ratio c
// (its accuracy knob; 0 means 2). rmin/rmax follow Config semantics.
func NewQALSHIndex(data [][]float32, c float64, seed int64) (*QALSHIndex, error) {
	cfg := qalsh.DefaultConfig()
	if c != 0 {
		cfg.C = c
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("e2lshos: empty dataset")
	}
	rmin := estimateRMin(data, cfg.Seed)
	rmax := lsh.MaxRadius(maxAbs(data), len(data[0]))
	ix, err := qalsh.Build(data, cfg, rmin, rmax)
	if err != nil {
		return nil, err
	}
	return &QALSHIndex{ix: ix}, nil
}

// Search answers a top-k query with QALSH's collision counting. It honors
// WithK; accuracy is set at build time through c.
func (s *QALSHIndex) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	return engineSearch(ctx, s, nil, q, opts)
}

// BatchSearch answers queries on a worker pool; see Engine.
func (s *QALSHIndex) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	return engineBatchSearch(ctx, s, nil, queries, opts)
}

// IndexBytes reports the (small) index footprint.
func (s *QALSHIndex) IndexBytes() int64 { return s.ix.IndexBytes() }

func (s *QALSHIndex) newQuerier() querier { return qalshQuerier{s: s.ix.NewSearcher()} }

type qalshQuerier struct {
	s *qalsh.Searcher
}

func (q qalshQuerier) Run(ctx context.Context, v []float32, kn ladder.Knobs, dst []ann.Neighbor) (Result, Stats, error) {
	res, st, err := q.s.SearchInto(ctx, v, kn.K, dst)
	return res, qalshStats(st), err
}

// qalshStats reports one QALSH query in the facade's counters.
func qalshStats(st qalsh.Stats) Stats {
	return Stats{
		Queries:        1,
		Radii:          st.Radii,
		EntriesScanned: st.EntriesScanned,
		Checked:        st.Checked,
	}
}
