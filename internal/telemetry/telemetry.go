// Package telemetry is the query-path sensory layer: it measures where a
// query's time goes, in a form cheap enough to leave on in production.
//
// Three pieces compose:
//
//   - Histogram: a lock-free, log-bucketed latency histogram with bounded
//     relative error (1/32 ≈ 3.1%). Histograms are written with one atomic
//     add per observation, snapshot without stopping writers, and snapshots
//     merge exactly — the latency analogue of Stats.Merge, so per-shard
//     histograms fold into engine-wide ones the same way work counters do.
//   - Trace: a searcher-owned, fixed-capacity span buffer recording one
//     sampled query's stage timeline (projection, per-round I/O, verify,
//     vectored-wave waits, coalescer wait). Every Trace method is nil-safe
//     and allocation-free, so the tracing-disabled hot path costs one nil
//     check and the sampled path reuses pooled buffers.
//   - Collector: per-engine aggregation — the per-stage histogram set, the
//     trace sampler/pool, and the slow-query log that dumps a full span
//     timeline for queries over a threshold.
//
// The paper's analysis (Table 2, Fig 12, §6) is all about attribution: hash
// vs. verify CPU, N_IO per radius round, queue-depth-dependent device
// latency. The counters in Stats give totals; this package gives the
// distributions and the per-query timelines that make a tail latency
// explainable.
package telemetry

// Stage labels one timed phase of a query. Stages index the Collector's
// histogram set and tag trace spans; String returns the stable name used in
// /metrics labels and the slow-query log.
type Stage uint8

const (
	// StageTotal is end-to-end query latency, observed for every query
	// (sampling only gates the span traces, never the total histogram).
	StageTotal Stage = iota
	// StageProject is the per-round GEMV projection + hash computation.
	StageProject
	// StageIO is a radius round's demand storage reads (table + bucket
	// blocks). Span N = logical block reads, M = cache hits among them.
	StageIO
	// StageVerify is candidate verification (fingerprint-surviving entries
	// through the pruned distance check). Span N = candidates checked.
	StageVerify
	// StageIOWait is one vectored wave's submit→complete wait on the I/O
	// engine (or the simulator's scheduler). Span N = blocks in the wave, M
	// = physical reads it became. In line there are no waves: a round's
	// reads are its StageIO alone.
	StageIOWait
	// StageIOOp is one physical backend operation inside the I/O engine,
	// timed from submission (queue-depth semaphore) to completion. Observed
	// directly per op, not trace-sampled.
	StageIOOp
	// StageCoalesceWait is a query's wait in the serving coalescer between
	// admission and its batch being cut. Observed per request.
	StageCoalesceWait
	// StageShardWait is one shard's scatter-gather answer latency inside a
	// sharded search. Observed per query×shard by the router hook.
	StageShardWait
	// StageRound is one whole radius-ladder round. Span N = probes issued,
	// M = non-empty probes.
	StageRound

	// NumStages is the number of Stage values; it sizes per-stage arrays.
	NumStages = int(StageRound) + 1
)

var stageNames = [NumStages]string{
	"total", "project", "io", "verify", "io_wait", "io_op",
	"coalesce_wait", "shard_wait", "round",
}

// String returns the stage's stable serving name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}
