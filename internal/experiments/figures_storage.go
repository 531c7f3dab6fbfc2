package experiments

import (
	"fmt"
	"math"

	"e2lshos/internal/ann"
	"e2lshos/internal/dataset"
	"e2lshos/internal/diskindex"
	"e2lshos/internal/iosim"
	"e2lshos/internal/ladder"
	"e2lshos/internal/pagecache"
	"e2lshos/internal/report"
	"e2lshos/internal/sched"
)

// contextsPerCPU is the interleaving depth of asynchronous runs (§5.4):
// enough in-flight queries to keep device queues deep.
const contextsPerCPU = 32

// engineRun executes one asynchronous E2LSHoS batch: the workload's queries
// at budget sigma over the given device/interface configuration.
type engineRun struct {
	Report  sched.Report
	Results []diskindex.AsyncResult
	// MeanRatio is the measured accuracy of the batch.
	MeanRatio float64
}

// runDisk executes the E2LSHoS workload on the engine.
func runDisk(env *Env, ws *Workload, sigma float64, k int, device iosim.DeviceSpec, count int,
	iface iosim.InterfaceSpec, cpus int) (*engineRun, error) {
	disk, err := ws.Disk(env)
	if err != nil {
		return nil, err
	}
	budget := int(math.Ceil(sigma * float64(ws.Params.L)))
	if budget < 1 {
		budget = 1
	}
	pool, err := iosim.NewPool(device, count)
	if err != nil {
		return nil, err
	}
	eng, err := sched.New(sched.Config{CPUs: cpus, Iface: iface, Pool: pool, Store: disk.Store()})
	if err != nil {
		return nil, err
	}
	results := make([]diskindex.AsyncResult, ws.DS.NQ())
	rep, err := eng.RunBatch(ws.DS.NQ(), contextsPerCPU, disk.AsyncQueryFunc(env.Model, ws.DS.Queries, k, budget, results))
	if err != nil {
		return nil, err
	}
	gt := ws.GroundTruth(k)
	var ratioSum float64
	for qi := range results {
		ratioSum += ann.OverallRatio(results[qi].Result, gt[qi], k)
	}
	return &engineRun{
		Report:    rep,
		Results:   results,
		MeanRatio: ratioSum / float64(ws.DS.NQ()),
	}, nil
}

// Fig11Result reproduces Fig 11: E2LSHoS speedup over SRS across storage
// configurations (SIFT), as a function of accuracy.
type Fig11Result struct {
	Dataset string
	Ratios  []float64
	Groups  []Fig11Group
}

// Fig11Group is one configuration group's speedup series.
type Fig11Group struct {
	Label   string
	Speedup []float64
}

// fig11Configs returns the six configuration groups of Fig 11. The
// in-memory group is handled analytically.
type fig11Config struct {
	label  string
	device iosim.DeviceSpec
	count  int
	iface  iosim.InterfaceSpec
}

func fig11Configs() []fig11Config {
	return []fig11Config{
		{"Group 1 (cSSD x1, io_uring)", iosim.CSSD, 1, iosim.IOUring},
		{"Group 2 (eSSD x8, io_uring)", iosim.ESSD, 8, iosim.IOUring},
		{"Group 3 (cSSD x4, SPDK)", iosim.CSSD, 4, iosim.SPDK},
		{"Group 4 (eSSD x8, SPDK)", iosim.ESSD, 8, iosim.SPDK},
		{"Group 6 (XLFDD x12)", iosim.XLFDD, 12, iosim.XLFDDLink},
	}
}

// Fig11 sweeps accuracy per configuration on the SIFT clone.
func Fig11(env *Env) (*Fig11Result, error) {
	ws, err := env.Workload(dataset.SIFT)
	if err != nil {
		return nil, err
	}
	srsCurve := srsTimeCurve(srsSweep(env, ws, 1))
	grid := ratioGrid()
	res := &Fig11Result{Dataset: ws.DS.Name, Ratios: grid}

	for _, cfg := range fig11Configs() {
		var ratios, times []float64
		for _, sigma := range env.Sigmas {
			run, err := runDisk(env, ws, sigma, 1, cfg.device, cfg.count, cfg.iface, 1)
			if err != nil {
				return nil, err
			}
			ratios = append(ratios, run.MeanRatio)
			times = append(times, float64(run.Report.TimePerQuery()))
		}
		timeCurve := newCurve(ratios, times)
		speedup := make([]float64, len(grid))
		for i, r := range grid {
			speedup[i] = srsCurve.at(r) / timeCurve.at(r)
		}
		res.Groups = append(res.Groups, Fig11Group{Label: cfg.label, Speedup: speedup})
	}

	// Group 5: in-memory E2LSH (analytic virtual time, with footprint stall).
	memPts := e2lshSweep(env, ws, 1, nil)
	memCurve := sweepTimeCurve(memPts, true)
	speedup := make([]float64, len(grid))
	for i, r := range grid {
		speedup[i] = srsCurve.at(r) / memCurve.at(r)
	}
	res.Groups = append(res.Groups, Fig11Group{Label: "Group 5 (in-memory E2LSH)", Speedup: speedup})
	return res, nil
}

// Render implements Renderable.
func (r *Fig11Result) Render() []*report.Table {
	header := []string{"Overall ratio"}
	for _, g := range r.Groups {
		header = append(header, g.Label)
	}
	t := report.New(fmt.Sprintf("Fig 11: speedup over SRS per storage configuration (%s)", r.Dataset), header...)
	for i, ratio := range r.Ratios {
		cells := []string{report.Num(ratio)}
		for _, g := range r.Groups {
			cells = append(cells, report.Num(g.Speedup[i]))
		}
		t.AddRow(cells...)
	}
	return []*report.Table{t}
}

// Fig12Result reproduces Fig 12: the I/O cost vs computation decomposition
// of the query time per interface (SIFT, eSSD x8 so IOPS never limits).
type Fig12Result struct {
	Dataset string
	Rows    []Fig12Row
}

// Fig12Row is one interface's decomposition, in milliseconds per query.
// HashMS and VerifyMS split the computation bar by kernel class — batched
// GEMV projections + combines versus scanning/dedup/pruned distance checks —
// measured from the per-query work counters the run actually performed.
type Fig12Row struct {
	Setup     string
	IOCostMS  float64
	ComputeMS float64
	HashMS    float64
	VerifyMS  float64
}

// Fig12 measures the decomposition at the target accuracy.
func Fig12(env *Env) (*Fig12Result, error) {
	ws, err := env.Workload(dataset.SIFT)
	if err != nil {
		return nil, err
	}
	sigma, err := sigmaForRatio(env, ws, 1, env.TargetRatio)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{Dataset: ws.DS.Name}

	// In-memory: all computation (with footprint stall), no I/O cost. The
	// hash/verify split re-runs the searcher at the chosen budget and folds
	// the measured work counters through the kernel op classes.
	memPts := e2lshSweep(env, ws, 1, nil)
	memCurve := sweepTimeCurve(memPts, true)
	memHash, memVerify := memHashVerifyMS(env, ws, sigma)
	res.Rows = append(res.Rows, Fig12Row{
		Setup:     "In-memory",
		ComputeMS: memCurve.at(env.TargetRatio) / 1e6,
		HashMS:    memHash,
		VerifyMS:  memVerify,
	})
	for _, iface := range []iosim.InterfaceSpec{iosim.IOUring, iosim.SPDK, iosim.XLFDDLink} {
		run, err := runDisk(env, ws, sigma, 1, iosim.ESSD, 8, iface, 1)
		if err != nil {
			return nil, err
		}
		n := float64(run.Report.Queries)
		hashMS, verifyMS := diskHashVerifyMS(env, ws, run.Results)
		res.Rows = append(res.Rows, Fig12Row{
			Setup:     iface.Name,
			IOCostMS:  float64(run.Report.IOOverhead) / n / 1e6,
			ComputeMS: float64(run.Report.Compute) / n / 1e6,
			HashMS:    hashMS,
			VerifyMS:  verifyMS,
		})
	}
	return res, nil
}

// memHashVerifyMS measures the in-memory reference's mean hash-side and
// verify-side CPU per query at budget sigma, in milliseconds.
func memHashVerifyMS(env *Env, ws *Workload, sigma float64) (hashMS, verifyMS float64) {
	budget := int(math.Ceil(sigma * float64(ws.Params.L)))
	if budget < 1 {
		budget = 1
	}
	s := ws.Mem.NewSearcher()
	var hash, verify float64
	for _, q := range ws.DS.Queries {
		_, st := searchMem(s, q, ladder.Knobs{K: 1, Budget: budget})
		hash += e2lshHashNS(env.Model, ws.Params, st, true)
		verify += e2lshVerifyNS(env.Model, ws.Params, st)
	}
	nq := float64(ws.DS.NQ())
	return hash / nq / 1e6, verify / nq / 1e6
}

// diskHashVerifyMS folds an engine run's per-query stats into the mean
// hash-side and verify-side CPU per query, in milliseconds.
func diskHashVerifyMS(env *Env, ws *Workload, results []diskindex.AsyncResult) (hashMS, verifyMS float64) {
	m := env.Model
	p := ws.Params
	var hash, verify float64
	for i := range results {
		st := &results[i].Stats
		hash += m.ProjectionsGEMV(p.Dim, p.L*p.M) + m.Combines(p.L*p.M*st.Radii)
		verify += m.Scan(st.EntriesScanned) +
			m.Dedup(st.Checked+st.Duplicates) +
			m.Distance(p.Dim)*float64(st.Checked)
	}
	n := float64(len(results))
	return hash / n / 1e6, verify / n / 1e6
}

// sigmaForRatio picks the sweep sigma whose measured ratio lands closest to
// the target.
func sigmaForRatio(env *Env, ws *Workload, k int, target float64) (float64, error) {
	pts := e2lshSweep(env, ws, k, nil)
	best := pts[0].Sigma
	bestDiff := math.Inf(1)
	for _, p := range pts {
		if d := math.Abs(p.Ratio - target); d < bestDiff {
			bestDiff = d
			best = p.Sigma
		}
	}
	return best, nil
}

// Render implements Renderable.
func (r *Fig12Result) Render() []*report.Table {
	t := report.New(fmt.Sprintf("Fig 12: I/O cost vs computation per query (%s, ms)", r.Dataset),
		"Setup", "I/O cost (ms)", "Computation (ms)", "Hash (ms)", "Verify (ms)", "Total (ms)")
	for _, row := range r.Rows {
		t.AddRow(row.Setup, report.Num(row.IOCostMS), report.Num(row.ComputeMS),
			report.Num(row.HashMS), report.Num(row.VerifyMS),
			report.Num(row.IOCostMS+row.ComputeMS))
	}
	return []*report.Table{t}
}

// Fig13Result reproduces Fig 13: speedups over SRS for every dataset and
// interface, at k=1 and k=100.
type Fig13Result struct {
	TargetRatio float64
	Ks          []int
	Rows        []Fig13Row
}

// Fig13Row is one (dataset, k) row of speedups.
type Fig13Row struct {
	Dataset  string
	K        int
	InMemory float64
	IOUring  float64
	SPDK     float64
	XLFDD    float64
}

// Fig13 measures all datasets at the target ratio for both k values. The
// io_uring and SPDK rows use cSSD x4 (the paper's low-cost configuration);
// XLFDD uses the 12-drive set.
func Fig13(env *Env) (*Fig13Result, error) {
	res := &Fig13Result{TargetRatio: env.TargetRatio, Ks: []int{1, 100}}
	for _, name := range dataset.PaperNames {
		ws, err := env.Workload(name)
		if err != nil {
			return nil, err
		}
		for _, k := range res.Ks {
			if k > ws.DS.N() {
				continue
			}
			srsCurve := srsTimeCurve(srsSweep(env, ws, k))
			tSRS := srsCurve.at(env.TargetRatio)
			memPts := e2lshSweep(env, ws, k, nil)
			memCurve := sweepTimeCurve(memPts, true)
			sigma, err := sigmaForRatio(env, ws, k, env.TargetRatio)
			if err != nil {
				return nil, err
			}
			row := Fig13Row{Dataset: ws.DS.Name, K: k,
				InMemory: tSRS / memCurve.at(env.TargetRatio)}
			type ifaceRun struct {
				dst    *float64
				device iosim.DeviceSpec
				count  int
				iface  iosim.InterfaceSpec
			}
			for _, ir := range []ifaceRun{
				{&row.IOUring, iosim.CSSD, 4, iosim.IOUring},
				{&row.SPDK, iosim.CSSD, 4, iosim.SPDK},
				{&row.XLFDD, iosim.XLFDD, 12, iosim.XLFDDLink},
			} {
				run, err := runDisk(env, ws, sigma, k, ir.device, ir.count, ir.iface, 1)
				if err != nil {
					return nil, err
				}
				*ir.dst = tSRS / float64(run.Report.TimePerQuery())
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Render implements Renderable.
func (r *Fig13Result) Render() []*report.Table {
	var tables []*report.Table
	for _, k := range r.Ks {
		t := report.New(fmt.Sprintf("Fig 13: speedup over SRS at overall ratio %.2f, k=%d", r.TargetRatio, k),
			"Dataset", "E2LSH (in-memory)", "E2LSHoS (io_uring)", "E2LSHoS (SPDK)", "E2LSHoS (XLFDD)")
		for _, row := range r.Rows {
			if row.K != k {
				continue
			}
			t.AddRow(row.Dataset, report.Num(row.InMemory), report.Num(row.IOUring),
				report.Num(row.SPDK), report.Num(row.XLFDD))
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig14Result reproduces Fig 14: query time vs database size, validating
// sublinear growth.
type Fig14Result struct {
	Sizes []int
	Rows  []Fig14Row
}

// Fig14Row is one database size's per-query times in milliseconds.
type Fig14Row struct {
	N int
	// SRSMS grows linearly; DiskMS (E2LSHoS on XLFDD) and MemMS (in-memory
	// E2LSH, same rho) grow sublinearly; SmallRhoMS is the small-index
	// in-memory E2LSH whose time blows up (rho = 0.09).
	SRSMS, DiskMS, MemMS, SmallRhoMS float64
}

// Fig14 sweeps BIGANN-clone subsets. Sizes derive from env.MaxN: five
// doublings ending at MaxN.
func Fig14(env *Env) (*Fig14Result, error) {
	sizes := fig14Sizes(env.MaxN)
	spec, err := dataset.PaperSpec(dataset.BIGANN, 0, sizes[len(sizes)-1], env.Queries)
	if err != nil {
		return nil, err
	}
	spec.N = sizes[len(sizes)-1]
	full, err := dataset.Generate(spec)
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{Sizes: sizes}
	for _, n := range sizes {
		ds := full.Subset(n)
		ws, err := env.buildWorkload(ds)
		if err != nil {
			return nil, err
		}
		row := Fig14Row{N: n}
		// SRS at target accuracy.
		srsCurve := srsTimeCurve(srsSweep(env, ws, 1))
		row.SRSMS = srsCurve.at(env.TargetRatio) / 1e6
		// In-memory E2LSH (same rho).
		memPts := e2lshSweep(env, ws, 1, nil)
		row.MemMS = sweepTimeCurve(memPts, true).at(env.TargetRatio) / 1e6
		// E2LSHoS on XLFDD x12.
		sigma, err := sigmaForRatio(env, ws, 1, env.TargetRatio)
		if err != nil {
			return nil, err
		}
		run, err := runDisk(env, ws, sigma, 1, iosim.XLFDD, 12, iosim.XLFDDLink, 1)
		if err != nil {
			return nil, err
		}
		row.DiskMS = float64(run.Report.TimePerQuery()) / 1e6
		// Small-rho in-memory E2LSH: tiny index, compensated by checking far
		// more candidates to reach the same accuracy.
		smallNS, err := smallRhoTime(env, ds)
		if err != nil {
			return nil, err
		}
		row.SmallRhoMS = smallNS / 1e6
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// fig14Sizes returns five doublings ending at maxN.
func fig14Sizes(maxN int) []int {
	sizes := make([]int, 5)
	for i := 4; i >= 0; i-- {
		sizes[i] = maxN
		maxN /= 2
	}
	return sizes
}

// smallRhoTime measures in-memory E2LSH with the paper's extreme rho = 0.09
// at the env's target accuracy.
func smallRhoTime(env *Env, ds *dataset.Dataset) (float64, error) {
	small := *env
	small.Rho = 0.09
	// The small index needs far larger budgets to reach the same accuracy.
	small.Sigmas = []float64{8, 64, 512, 4096, 16384}
	small.cache = nil
	ws, err := small.buildWorkload(ds)
	if err != nil {
		return 0, err
	}
	pts := e2lshSweep(&small, ws, 1, nil)
	return sweepTimeCurve(pts, true).at(env.TargetRatio), nil
}

// Render implements Renderable.
func (r *Fig14Result) Render() []*report.Table {
	t := report.New("Fig 14: query time vs database size (ms/query)",
		"n", "SRS", "E2LSHoS (XLFDD)", "E2LSH (in-memory)", "E2LSH (in-memory, small rho)")
	for _, row := range r.Rows {
		t.AddRow(report.Int(row.N), report.Num(row.SRSMS), report.Num(row.DiskMS),
			report.Num(row.MemMS), report.Num(row.SmallRhoMS))
	}
	return []*report.Table{t}
}

// Fig15Result reproduces Fig 15: query speed and device statistics for a
// varying number of cSSDs.
type Fig15Result struct {
	Dataset string
	Rows    []Fig15Row
}

// Fig15Row is one device count's measurements.
type Fig15Row struct {
	Devices       int
	QueriesPerSec float64
	ObservedKIOPS float64
	LatencyUS     float64
	UsagePct      float64
}

// Fig15 runs the SIFT workload on 1..6 cSSDs over io_uring.
func Fig15(env *Env) (*Fig15Result, error) {
	ws, err := env.Workload(dataset.SIFT)
	if err != nil {
		return nil, err
	}
	sigma, err := sigmaForRatio(env, ws, 1, env.TargetRatio)
	if err != nil {
		return nil, err
	}
	res := &Fig15Result{Dataset: ws.DS.Name}
	for devs := 1; devs <= 6; devs++ {
		run, err := runDisk(env, ws, sigma, 1, iosim.CSSD, devs, iosim.IOUring, 1)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig15Row{
			Devices:       devs,
			QueriesPerSec: run.Report.QueriesPerSecond(),
			ObservedKIOPS: run.Report.ObservedIOPS() / 1000,
			LatencyUS:     float64(run.Report.Device.MeanLatency()) / 1000,
			UsagePct:      run.Report.DeviceUsage * 100,
		})
	}
	return res, nil
}

// Render implements Renderable.
func (r *Fig15Result) Render() []*report.Table {
	t := report.New(fmt.Sprintf("Fig 15: query speed and device statistics vs number of cSSDs (%s)", r.Dataset),
		"Devices", "Queries/s", "Observed kIOPS", "Latency (us)", "Device usage (%)")
	for _, row := range r.Rows {
		t.AddRow(report.Int(row.Devices), report.Num(row.QueriesPerSec),
			report.Num(row.ObservedKIOPS), report.Num(row.LatencyUS), report.Num(row.UsagePct))
	}
	return []*report.Table{t}
}

// Fig16Result reproduces Fig 16: multithreaded query throughput.
type Fig16Result struct {
	Dataset string
	Rows    []Fig16Row
}

// Fig16Row is one thread count's throughputs.
type Fig16Row struct {
	Threads      int
	SRSQPS       float64
	DiskXLFDDQPS float64
	DiskCSSDQPS  float64
}

// Fig16 sweeps 1..32 virtual CPUs.
func Fig16(env *Env) (*Fig16Result, error) {
	ws, err := env.Workload(dataset.SIFT)
	if err != nil {
		return nil, err
	}
	sigma, err := sigmaForRatio(env, ws, 1, env.TargetRatio)
	if err != nil {
		return nil, err
	}
	srsCurve := srsTimeCurve(srsSweep(env, ws, 1))
	tSRS := srsCurve.at(env.TargetRatio) // ns per query, one thread
	res := &Fig16Result{Dataset: ws.DS.Name}
	for _, threads := range []int{1, 2, 4, 8, 16, 32} {
		xl, err := runDisk(env, ws, sigma, 1, iosim.XLFDD, 12, iosim.XLFDDLink, threads)
		if err != nil {
			return nil, err
		}
		cs, err := runDisk(env, ws, sigma, 1, iosim.CSSD, 4, iosim.IOUring, threads)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig16Row{
			Threads:      threads,
			SRSQPS:       float64(threads) * 1e9 / tSRS, // embarrassingly parallel
			DiskXLFDDQPS: xl.Report.QueriesPerSecond(),
			DiskCSSDQPS:  cs.Report.QueriesPerSecond(),
		})
	}
	return res, nil
}

// Render implements Renderable.
func (r *Fig16Result) Render() []*report.Table {
	t := report.New(fmt.Sprintf("Fig 16: query throughput vs threads (%s)", r.Dataset),
		"Threads", "SRS q/s", "E2LSHoS (XLFDD x12) q/s", "E2LSHoS (cSSD x4) q/s")
	for _, row := range r.Rows {
		t.AddRow(report.Int(row.Threads), report.Num(row.SRSQPS),
			report.Num(row.DiskXLFDDQPS), report.Num(row.DiskCSSDQPS))
	}
	return []*report.Table{t}
}

// SyncResult reproduces §6.5's synchronous (mmap + page cache) comparison.
type SyncResult struct {
	Dataset      string
	AsyncMS      float64
	SyncMS       float64
	Slowdown     float64
	PageMissRate float64
}

// SyncComparison runs the same workload asynchronously and through the
// blocking page-cache path, with the cache sized to a fraction of the index.
func SyncComparison(env *Env) (*SyncResult, error) {
	ws, err := env.Workload(dataset.BIGANN)
	if err != nil {
		return nil, err
	}
	disk, err := ws.Disk(env)
	if err != nil {
		return nil, err
	}
	sigma, err := sigmaForRatio(env, ws, 1, env.TargetRatio)
	if err != nil {
		return nil, err
	}
	async, err := runDisk(env, ws, sigma, 1, iosim.CSSD, 4, iosim.IOUring, 1)
	if err != nil {
		return nil, err
	}

	budget := int(math.Ceil(sigma * float64(ws.Params.L)))
	pool, err := iosim.NewPool(iosim.CSSD, 4)
	if err != nil {
		return nil, err
	}
	// Page cache sized to ~10% of the index, mirroring the paper's 32 GB
	// cache against a ~300 GB working set.
	pages := int(disk.StorageBytes() / pagecache.PageSize / 10)
	if pages < 16 {
		pages = 16
	}
	cache, err := pagecache.NewShared(pages)
	if err != nil {
		return nil, err
	}
	eng, err := sched.New(sched.Config{
		CPUs: 1, Iface: iosim.IOUring, Pool: pool, Store: disk.Store(),
		Sync: true, PageCache: cache, PageFaultOverhead: 2500, CacheHitCost: 200,
	})
	if err != nil {
		return nil, err
	}
	results := make([]diskindex.AsyncResult, ws.DS.NQ())
	rep, err := eng.RunBatch(ws.DS.NQ(), 1, disk.AsyncQueryFunc(env.Model, ws.DS.Queries, 1, max(budget, 1), results))
	if err != nil {
		return nil, err
	}
	asyncMS := float64(async.Report.TimePerQuery()) / 1e6
	syncMS := float64(rep.TimePerQuery()) / 1e6
	return &SyncResult{
		Dataset:      ws.DS.Name,
		AsyncMS:      asyncMS,
		SyncMS:       syncMS,
		Slowdown:     syncMS / asyncMS,
		PageMissRate: cache.MissRate(),
	}, nil
}

// Render implements Renderable.
func (r *SyncResult) Render() []*report.Table {
	t := report.New(fmt.Sprintf("§6.5: synchronous (mmap + page cache) vs asynchronous E2LSHoS (%s)", r.Dataset),
		"Mode", "ms/query", "Slowdown", "Page miss rate")
	t.AddRow("Asynchronous", report.Num(r.AsyncMS), "1.00", "-")
	t.AddRow("Synchronous (mmap)", report.Num(r.SyncMS), report.Num(r.Slowdown),
		fmt.Sprintf("%.0f%%", r.PageMissRate*100))
	return []*report.Table{t}
}
