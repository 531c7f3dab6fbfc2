package experiments

import (
	"fmt"
	"math"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
	"e2lshos/internal/diskindex"
	"e2lshos/internal/iosim"
	"e2lshos/internal/report"
	"e2lshos/internal/sched"
	"e2lshos/internal/shard"
	"e2lshos/internal/simclock"
)

// ShardsResult is the serving-subsystem analogue of Fig 15: instead of one
// index striped over more devices, the dataset is partitioned into S shards,
// each an independent E2LSHoS index on its own simulated cSSD. Every query
// scatters to all shards (they run in parallel, so the batch finishes at the
// slowest shard's makespan) and the per-shard answers merge into one global
// top-k through the shard router's merge path.
type ShardsResult struct {
	Dataset string
	Rows    []ShardsRow
}

// ShardsRow is one shard count's measurements.
type ShardsRow struct {
	Shards        int
	QueriesPerSec float64
	Speedup       float64 // vs the single-shard row
	MeanIOs       float64 // summed across shards, per query
	MeanRatio     float64 // accuracy of the merged answers
}

// Shards sweeps the shard count for the SIFT workload at the target
// accuracy, one cSSD and one virtual core per shard.
func Shards(env *Env) (*ShardsResult, error) {
	ws, err := env.Workload(dataset.SIFT)
	if err != nil {
		return nil, err
	}
	sigma, err := sigmaForRatio(env, ws, 1, env.TargetRatio)
	if err != nil {
		return nil, err
	}
	gt := ws.GroundTruth(1)
	res := &ShardsResult{Dataset: ws.DS.Name}
	for _, shards := range []int{1, 2, 4, 6} {
		row, err := runSharded(env, ws, sigma, shards)
		if err != nil {
			return nil, err
		}
		row.MeanRatio = ann.MeanRatio(row.merged, gt, 1)
		if len(res.Rows) > 0 {
			row.Speedup = row.QueriesPerSec / res.Rows[0].QueriesPerSec
		} else {
			row.Speedup = 1
		}
		res.Rows = append(res.Rows, row.ShardsRow)
	}
	return res, nil
}

// shardedRun carries one shard count's row plus the merged answers it was
// scored from.
type shardedRun struct {
	ShardsRow
	merged []ann.Result
}

// runSharded partitions the workload, runs the full query batch on every
// shard's own virtual-time stack, and merges. Shards are independent
// machines in the serving model, so the scatter-gather batch completes at
// max(per-shard makespan) while I/O work sums.
func runSharded(env *Env, ws *Workload, sigma float64, shards int) (shardedRun, error) {
	globals, err := shard.Partition(ws.DS.N(), shards, shard.Range)
	if err != nil {
		return shardedRun{}, err
	}
	nq := ws.DS.NQ()
	perShard := make([][]ann.Result, shards)
	var makespan simclock.Time
	var totalIOs int64
	for i, part := range globals {
		vectors := make([][]float32, len(part))
		for l, g := range part {
			vectors[l] = ws.DS.Vectors[g]
		}
		sub := &dataset.Dataset{
			Name: fmt.Sprintf("%s/shard%d", ws.DS.Name, i), Dim: ws.DS.Dim,
			Vectors: vectors, Queries: ws.DS.Queries,
		}
		p, err := env.DeriveParams(sub)
		if err != nil {
			return shardedRun{}, err
		}
		ix, err := diskindex.Build(vectors, p, diskindex.Options{Seed: env.Seed}, blockstore.NewMem())
		if err != nil {
			return shardedRun{}, err
		}
		budget := int(math.Ceil(sigma * float64(p.L)))
		if budget < 1 {
			budget = 1
		}
		pool, err := iosim.NewPool(iosim.CSSD, 1)
		if err != nil {
			return shardedRun{}, err
		}
		eng, err := sched.New(sched.Config{CPUs: 1, Iface: iosim.IOUring, Pool: pool, Store: ix.Store()})
		if err != nil {
			return shardedRun{}, err
		}
		results := make([]diskindex.AsyncResult, nq)
		rep, err := eng.RunBatch(nq, contextsPerCPU, ix.AsyncQueryFunc(env.Model, ws.DS.Queries, 1, budget, results))
		if err != nil {
			return shardedRun{}, err
		}
		if rep.Makespan > makespan {
			makespan = rep.Makespan
		}
		totalIOs += rep.IOs
		local := make([]ann.Result, nq)
		for qi := range results {
			local[qi] = results[qi].Result
		}
		perShard[i] = local
	}
	merged := shard.MergeTopK(1, globals, perShard)
	row := shardedRun{merged: merged}
	row.Shards = shards
	row.MeanIOs = float64(totalIOs) / float64(nq)
	if makespan > 0 {
		row.QueriesPerSec = float64(nq) / makespan.Seconds()
	}
	return row, nil
}

// Render implements Renderable.
func (r *ShardsResult) Render() []*report.Table {
	t := report.New(fmt.Sprintf("shards: serving throughput vs shard count (%s, one cSSD per shard)", r.Dataset),
		"Shards", "Queries/s", "Speedup", "Mean N_IO", "Overall ratio")
	for _, row := range r.Rows {
		t.AddRow(report.Int(row.Shards), report.Num(row.QueriesPerSec),
			report.Num(row.Speedup), report.Num(row.MeanIOs), report.Num(row.MeanRatio))
	}
	return []*report.Table{t}
}
