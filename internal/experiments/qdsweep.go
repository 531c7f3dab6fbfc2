package experiments

import (
	"fmt"
	"math"

	"e2lshos/internal/dataset"
	"e2lshos/internal/diskindex"
	"e2lshos/internal/iosim"
	"e2lshos/internal/report"
	"e2lshos/internal/sched"
	"e2lshos/internal/simclock"
)

// QDSweepResult is the Table 2 analogue for the vectored submission path:
// how queue depth turns the device's rated IOPS into query performance. Two
// curves are swept together over queue depths 1..64 on the cSSD model:
//
//   - The raw device curve (MeasureIOPS): effective random-read IOPS of a
//     closed loop holding the queue at each depth — saturating at
//     Dies/ServiceTime, the paper's measured QD128 column.
//   - The query curve: the asynchronous engine running the E2LSHoS batch
//     with that many in-flight query contexts, which is what actually puts
//     requests in the device queue. Per-query latency, throughput, observed
//     IOPS and the reads absorbed by vectored-submission coalescing are
//     reported per depth.
type QDSweepResult struct {
	Dataset string
	Device  string
	// Dies is the device's die count: the depth beyond which the effective
	// IOPS curve is flat.
	Dies int
	Rows []QDSweepRow
}

// QDSweepRow is one queue depth's measurements.
type QDSweepRow struct {
	QueueDepth int
	// DeviceIOPS is the raw closed-loop random-read rate at this depth.
	DeviceIOPS float64
	// QueryUS is the mean virtual per-query time of the async engine run.
	QueryUS float64
	// QPS is the engine's query throughput.
	QPS float64
	// ObservedIOPS is the device-side read rate the engine run achieved.
	ObservedIOPS float64
	// CoalescedReads counts reads the vectored submission merged into
	// another request's interface overhead across the run.
	CoalescedReads int64
}

// qdSweepDepths is the swept queue-depth grid (Table 2 runs 1..128; the die
// count of the cSSD model caps useful depth at 38).
var qdSweepDepths = []int{1, 2, 4, 8, 16, 32, 64}

// QDSweep runs the sweep on the SIFT clone against the cSSD model at the
// target accuracy.
func QDSweep(env *Env) (*QDSweepResult, error) {
	ws, err := env.Workload(dataset.SIFT)
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
	budget := int(math.Ceil(sigma * float64(ws.Params.L)))
	if budget < 1 {
		budget = 1
	}

	spec := iosim.CSSD
	res := &QDSweepResult{Dataset: ws.DS.Name, Device: spec.Name, Dies: spec.Dies}
	const window = simclock.Time(200_000_000) // 200 virtual ms
	nq := ws.DS.NQ()
	for _, qd := range qdSweepDepths {
		iops, err := iosim.MeasureIOPS(spec, qd, window)
		if err != nil {
			return nil, err
		}
		pool, err := iosim.NewPool(spec, 1)
		if err != nil {
			return nil, err
		}
		eng, err := sched.New(sched.Config{CPUs: 1, Iface: iosim.IOUring, Pool: pool, Store: disk.Store()})
		if err != nil {
			return nil, err
		}
		runResults := make([]diskindex.AsyncResult, nq)
		rep, err := eng.RunBatch(nq, qd, disk.AsyncQueryFunc(env.Model, ws.DS.Queries, 1, budget, runResults))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, QDSweepRow{
			QueueDepth:     qd,
			DeviceIOPS:     iops,
			QueryUS:        rep.TimePerQuery().Micros(),
			QPS:            rep.QueriesPerSecond(),
			ObservedIOPS:   rep.ObservedIOPS(),
			CoalescedReads: rep.CoalescedReads,
		})
	}
	return res, nil
}

// Render implements Renderable.
func (r *QDSweepResult) Render() []*report.Table {
	t := report.New(fmt.Sprintf("qdsweep: effective IOPS and query latency vs queue depth (%s on %s, %d dies)",
		r.Dataset, r.Device, r.Dies),
		"QD", "Device kIOPS", "Query µs", "Queries/s", "Observed kIOPS", "Coalesced reads")
	for _, row := range r.Rows {
		t.AddRow(report.Int(row.QueueDepth), report.Num(row.DeviceIOPS/1000),
			report.Num(row.QueryUS), report.Num(row.QPS),
			report.Num(row.ObservedIOPS/1000), report.Int(int(row.CoalescedReads)))
	}
	return []*report.Table{t}
}
