package experiments

import (
	"fmt"
	"math"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/dataset"
	"e2lshos/internal/ladder"
	"e2lshos/internal/memindex"
	"e2lshos/internal/report"
)

// AblationResult measures the design choices DESIGN.md calls out, on the
// SIFT clone:
//
//  1. ShareProjections: build cost and accuracy of the shared-projection
//     optimization against the original fully independent per-radius hash
//     functions.
//  2. Occupancy bitmaps: the I/O saved by keeping per-table bitmaps on DRAM
//     so empty buckets cost zero I/O (§5's "easy to avoid issuing I/Os").
//  3. Multi-Probe (§8 extension): probes vs accuracy at a fixed index size.
type AblationResult struct {
	Dataset string
	Share   []AblationShareRow
	Bitmap  []AblationBitmapRow
	Probe   []AblationProbeRow
}

// AblationShareRow compares projection-sharing modes.
type AblationShareRow struct {
	Mode    string
	BuildMS float64
	Ratio   float64
}

// AblationBitmapRow compares per-query I/O with and without the DRAM
// occupancy bitmaps.
type AblationBitmapRow struct {
	Budget           string
	IOsWithBitmap    float64 // table read + bucket read per non-empty probe
	IOsWithoutBitmap float64 // plus one table read per empty probe
	SavedPct         float64
}

// AblationProbeRow is one multi-probe setting.
type AblationProbeRow struct {
	ExtraProbes int
	Probes      float64
	Checked     float64
	Ratio       float64
}

// Ablation runs all three studies.
func Ablation(env *Env) (*AblationResult, error) {
	ws, err := env.Workload(dataset.SIFT)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Dataset: ws.DS.Name}
	gt := ws.GroundTruth(1)

	// 1. ShareProjections ablation: wall-clock builds (the only wall-clock
	// measurement in the harness; both run on the same machine back to
	// back, so the ratio is meaningful) plus accuracy of each mode.
	for _, share := range []bool{true, false} {
		start := time.Now()
		ix, err := memindex.Build(ws.DS.Vectors, ws.Params, memindex.Options{
			ShareProjections: share, Seed: env.Seed,
		})
		if err != nil {
			return nil, err
		}
		buildMS := float64(time.Since(start).Microseconds()) / 1000
		s := ix.NewSearcher()
		var ratio float64
		for qi, q := range ws.DS.Queries {
			r, _ := searchMem(s, q, ladder.Knobs{K: 1, Budget: 16 * ws.Params.L})
			ratio += ann.OverallRatio(r, gt[qi], 1)
		}
		mode := "independent"
		if share {
			mode = "shared"
		}
		res.Share = append(res.Share, AblationShareRow{
			Mode: mode, BuildMS: buildMS, Ratio: ratio / float64(ws.DS.NQ()),
		})
	}

	// 2. Occupancy bitmap ablation: without bitmaps, every probe must read
	// its hash-table entry to learn the bucket is empty.
	for _, sigma := range []float64{2, 32} {
		kn := ladder.Knobs{K: 1, Budget: int(math.Ceil(sigma * float64(ws.Params.L)))}
		s := ws.Mem.NewSearcher()
		var acc ladder.Stats
		for _, q := range ws.DS.Queries {
			_, st := searchMem(s, q, kn)
			acc.Merge(st)
		}
		nq := float64(acc.Queries)
		with := float64(acc.IOsAtInf) / nq
		without := with + float64(acc.Probes-acc.NonEmptyProbes)/nq
		res.Bitmap = append(res.Bitmap, AblationBitmapRow{
			Budget:           fmt.Sprintf("sigma=%g", sigma),
			IOsWithBitmap:    with,
			IOsWithoutBitmap: without,
			SavedPct:         (1 - with/without) * 100,
		})
	}

	// 3. Multi-probe ablation at a deliberately small budget.
	s := ws.Mem.NewSearcher()
	for _, t := range []int{0, 2, 8} {
		kn := ladder.Knobs{K: 1, Budget: 2 * ws.Params.L, MultiProbe: t}
		var acc ladder.Stats
		var ratio float64
		for qi, q := range ws.DS.Queries {
			r, st := searchMem(s, q, kn)
			acc.Merge(st)
			ratio += ann.OverallRatio(r, gt[qi], 1)
		}
		nq := float64(acc.Queries)
		res.Probe = append(res.Probe, AblationProbeRow{
			ExtraProbes: t,
			Probes:      float64(acc.Probes) / nq,
			Checked:     acc.MeanChecked(),
			Ratio:       ratio / nq,
		})
	}
	return res, nil
}

// Render implements Renderable.
func (r *AblationResult) Render() []*report.Table {
	share := report.New(fmt.Sprintf("Ablation 1: shared vs independent projections (%s)", r.Dataset),
		"Mode", "Build (ms)", "Overall ratio")
	for _, row := range r.Share {
		share.AddRow(row.Mode, report.Num(row.BuildMS), report.Num(row.Ratio))
	}
	bitmap := report.New("Ablation 2: DRAM occupancy bitmaps",
		"Budget", "N_IO with bitmap", "N_IO without", "I/O saved")
	for _, row := range r.Bitmap {
		bitmap.AddRow(row.Budget, report.Num(row.IOsWithBitmap), report.Num(row.IOsWithoutBitmap),
			fmt.Sprintf("%.0f%%", row.SavedPct))
	}
	probe := report.New("Ablation 3: multi-probe extension (fixed index, budget 2L)",
		"Extra probes T", "Probes/query", "Checked/query", "Overall ratio")
	for _, row := range r.Probe {
		probe.AddRow(report.Int(row.ExtraProbes), report.Num(row.Probes),
			report.Num(row.Checked), report.Num(row.Ratio))
	}
	return []*report.Table{share, bitmap, probe}
}
