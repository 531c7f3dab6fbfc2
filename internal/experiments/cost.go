package experiments

import (
	"math"
	"sort"

	"e2lshos/internal/ann"
	"e2lshos/internal/costmodel"
	"e2lshos/internal/ladder"
	"e2lshos/internal/lsh"
	"e2lshos/internal/qalsh"
	"e2lshos/internal/srs"
)

// e2lshHashNS is the hash-side CPU charge of one E2LSH query: the batched
// GEMV projection (per radius when projections are not shared) plus the
// quantize-and-mix combines. All engines project through the same MatVec
// kernel since PR 4, so the charge uses the GEMV op class.
func e2lshHashNS(m costmodel.CPUModel, p lsh.Params, st ladder.Stats, share bool) float64 {
	proj := m.ProjectionsGEMV(p.Dim, p.L*p.M)
	if !share {
		proj *= float64(st.Radii)
	}
	return proj + m.Combines(p.L*p.M*st.Radii)
}

// e2lshVerifyNS is the verify-side CPU charge of one E2LSH query: bucket
// scanning, dedup stamps and the (pruned) distance computations.
func e2lshVerifyNS(m costmodel.CPUModel, p lsh.Params, st ladder.Stats) float64 {
	return m.Scan(st.EntriesScanned) +
		m.Dedup(st.Checked+st.Duplicates) +
		m.Distance(p.Dim)*float64(st.Checked)
}

// e2lshQueryNS charges the cost model for one in-memory E2LSH query's work.
// stall applies the footprint penalty the paper measured for the large
// in-memory index (§4.5); E2LSHoS's T_compute omits it.
func e2lshQueryNS(m costmodel.CPUModel, p lsh.Params, st ladder.Stats, share, stall bool) float64 {
	t := m.QueryFixed
	t += e2lshHashNS(m, p, st, share)
	t += m.MemPerLine * float64(st.Probes) // hash table lookups
	t += e2lshVerifyNS(m, p, st)
	if stall {
		t *= m.FootprintStall
	}
	return t
}

// SRSQueryNS exposes the SRS virtual-time charge for examples and
// benchmarks that time SRS outside the harness.
func SRSQueryNS(m costmodel.CPUModel, dim, projDim int, st srs.Stats) float64 {
	return srsQueryNS(m, dim, projDim, st)
}

// srsQueryNS charges one in-memory SRS query: R-tree browsing in the
// projected space plus full-dimensional verifications.
func srsQueryNS(m costmodel.CPUModel, dim, projDim int, st srs.Stats) float64 {
	t := m.QueryFixed
	t += m.ProjectionsGEMV(dim, projDim)
	t += m.NodeVisit() * float64(st.NodesVisited)
	t += (m.DistPerDim*float64(projDim) + m.ScanPerEntry + m.SeenOp) * float64(st.EntriesScanned)
	t += m.Distance(dim) * float64(st.Checked)
	return t
}

// qalshQueryNS charges one in-memory QALSH query: B+-tree window scans with
// collision counting plus verifications.
func qalshQueryNS(m costmodel.CPUModel, dim, hashes int, st qalsh.Stats) float64 {
	t := m.QueryFixed
	t += m.ProjectionsGEMV(dim, hashes)
	t += m.NodeVisit() * float64(2*hashes) // tree descents (two cursors per tree)
	t += (m.ScanPerEntry + m.SeenOp) * float64(st.EntriesScanned)
	t += m.Distance(dim) * float64(st.Checked)
	return t
}

// entriesPerBlock returns how many 5-byte object infos fit a block of b
// bytes after the 16-byte header; b == 0 means unlimited (the paper's B=∞).
func entriesPerBlock(b int) int {
	if b == 0 {
		return math.MaxInt32
	}
	return (b - 16) / 5
}

// blocksFor returns how many B-sized blocks reading `read` entries takes.
func blocksFor(read, b int) int {
	per := entriesPerBlock(b)
	return (read + per - 1) / per
}

// SweepPoint is one accuracy level of the E2LSH sigma sweep: the measured
// ratio, the virtual query times, and the modeled I/O counts per block size.
type SweepPoint struct {
	Sigma float64
	// Ratio is the measured overall ratio at this budget.
	Ratio float64
	// MemNS is the in-memory E2LSH virtual query time (with footprint
	// stall); ComputeNS is E2LSHoS's T_compute (without it).
	MemNS, ComputeNS float64
	// IOs maps block size B (bytes; 0 = unlimited) to the mean N_IO per
	// query: one table read plus ceil(read/perBlock) bucket reads per
	// non-empty probed bucket.
	IOs map[int]float64
	// MeanRadii is the paper's r̄ at this accuracy.
	MeanRadii float64
	// MeanChecked is the average number of verified candidates.
	MeanChecked float64
}

// e2lshSweep runs the in-memory reference across the sigma grid, measuring
// accuracy, virtual times and modeled I/O counts for every requested block
// size in a single pass per sigma.
func e2lshSweep(env *Env, ws *Workload, k int, blockSizes []int) []SweepPoint {
	gt := ws.GroundTruth(k)
	points := make([]SweepPoint, 0, len(env.Sigmas))
	for _, sigma := range env.Sigmas {
		budget := int(math.Ceil(sigma * float64(ws.Params.L)))
		if budget < 1 {
			budget = 1
		}
		s := ws.Mem.NewSearcher()
		ios := make(map[int]float64, len(blockSizes))
		s.OnBucketVisit(func(size, read int) {
			for _, b := range blockSizes {
				ios[b] += 1 + float64(blocksFor(read, b))
			}
		})
		pt := SweepPoint{Sigma: sigma, IOs: ios}
		var ratioSum float64
		for qi, q := range ws.DS.Queries {
			res, st := searchMem(s, q, ladder.Knobs{K: k, Budget: budget})
			ratioSum += ann.OverallRatio(res, gt[qi], k)
			pt.MemNS += e2lshQueryNS(env.Model, ws.Params, st, true, true)
			pt.ComputeNS += e2lshQueryNS(env.Model, ws.Params, st, true, false)
			pt.MeanRadii += float64(st.Radii)
			pt.MeanChecked += float64(st.Checked)
		}
		nq := float64(ws.DS.NQ())
		pt.Ratio = ratioSum / nq
		pt.MemNS /= nq
		pt.ComputeNS /= nq
		pt.MeanRadii /= nq
		pt.MeanChecked /= nq
		for b := range ios {
			ios[b] /= nq
		}
		points = append(points, pt)
	}
	return points
}

// SRSPoint is one accuracy level of the SRS T' sweep.
type SRSPoint struct {
	Budget int
	Ratio  float64
	NS     float64
}

// srsSweep runs SRS across the T' grid.
func srsSweep(env *Env, ws *Workload, k int) []SRSPoint {
	gt := ws.GroundTruth(k)
	points := make([]SRSPoint, 0, len(env.SRSBudgetFracs))
	for _, frac := range env.SRSBudgetFracs {
		budget := int(frac * float64(ws.DS.N()))
		if budget < k {
			budget = k
		}
		var ratioSum, nsSum float64
		for qi, q := range ws.DS.Queries {
			res, st := ws.SRS.Search(q, k, budget)
			ratioSum += ann.OverallRatio(res, gt[qi], k)
			nsSum += srsQueryNS(env.Model, ws.DS.Dim, ws.SRS.Config().ProjDim, st)
		}
		nq := float64(ws.DS.NQ())
		points = append(points, SRSPoint{Budget: budget, Ratio: ratioSum / nq, NS: nsSum / nq})
	}
	return points
}

// curve is a piecewise-linear ratio→value mapping built from sweep points.
type curve struct {
	ratios []float64
	values []float64
}

// newCurve sorts points by ratio, merging duplicates by averaging.
func newCurve(ratios, values []float64) curve {
	type pt struct{ r, v float64 }
	pts := make([]pt, len(ratios))
	for i := range ratios {
		pts[i] = pt{ratios[i], values[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].r < pts[j].r })
	c := curve{}
	for _, p := range pts {
		if n := len(c.ratios); n > 0 && p.r == c.ratios[n-1] {
			c.values[n-1] = (c.values[n-1] + p.v) / 2
			continue
		}
		c.ratios = append(c.ratios, p.r)
		c.values = append(c.values, p.v)
	}
	return c
}

// at interpolates the curve at ratio r, clamping outside the sweep range.
func (c curve) at(r float64) float64 {
	if len(c.ratios) == 0 {
		return math.NaN()
	}
	if r <= c.ratios[0] {
		return c.values[0]
	}
	last := len(c.ratios) - 1
	if r >= c.ratios[last] {
		return c.values[last]
	}
	i := sort.SearchFloat64s(c.ratios, r)
	lo, hi := i-1, i
	span := c.ratios[hi] - c.ratios[lo]
	if span == 0 {
		return c.values[lo]
	}
	frac := (r - c.ratios[lo]) / span
	return c.values[lo] + frac*(c.values[hi]-c.values[lo])
}

// ratioGrid returns the accuracy grid of the paper's figures (x axes of
// Figs 3–8, 11): overall ratios from 1.00 to 1.20.
func ratioGrid() []float64 {
	return []float64{1.00, 1.025, 1.05, 1.075, 1.10, 1.125, 1.15, 1.175, 1.20}
}
