package diskindex

import (
	"encoding/binary"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/autotune"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/costmodel"
	"e2lshos/internal/lsh"
	"e2lshos/internal/sched"
	"e2lshos/internal/vecmath"
)

// AsyncResult collects one query's outcome from an engine run.
type AsyncResult struct {
	Result ann.Result
	Stats  Stats
	// Outcome is what the autotune controller did to this query (zero
	// without a tuner; see AsyncQueryFuncTuned).
	Outcome autotune.Outcome
}

// asyncPool recycles per-query state machines. The scheduler runs its whole
// batch on one goroutine, so a plain stack free list suffices; the number of
// live states is bounded by the engine's admission depth (CPUs × contexts),
// and each carries an epoch-stamped visited array sized to the database —
// the same dedup structure the wall-clock searchers use, replacing the
// per-query map the hot loop used to allocate and hash into.
//
// Memory bound: peak footprint is admission_depth × 4·len(data) bytes
// (e.g. Fig 16's worst case, 32 CPUs × 32 contexts over the 64k-object
// default cap, is ~256 MiB), reached only while that many queries are
// actually in flight and reused across the rest of the batch. Workloads
// driving the simulator at much larger n should scale contextsPerCPU down
// accordingly.
type asyncPool struct {
	free []*asyncRun
}

// AsyncQueryFunc adapts the index to the scheduling engine: the returned
// sched.QueryFunc evaluates queries[i] for top-k and stores its outcome in
// results[i]. It implements §5.4 with vectored round submission: per radius,
// the query computes its L compound hashes and submits the hash-table reads
// of all occupied buckets as ONE vectored batch (step 1) — the CPU pays the
// interface overhead per coalesced run, not per block, and the device sees
// the whole round as its queue depth. The bucket heads those table entries
// name go out as the next vectored wave (step 2), and each chain depth level
// after that as another (step 3), until every chain has drained; blocks are
// scanned — fingerprints, dedup, pruned distances — as they arrive, in
// device completion order. Termination mirrors the synchronous reference.
//
// CPU work is charged to the virtual clock through the shared cost model
// (batch assembly included), so the same function serves both asynchronous
// (Fig 1B) and synchronous/mmap (Fig 1A, §6.5) engines; in synchronous mode
// the vectored waves degrade to blocking per-block reads, exactly the mmap
// baseline. budget is the per-radius candidate cap (0 means the index's
// built-in S). The engine path requires the default 512-byte bucket blocks.
func (ix *Index) AsyncQueryFunc(model costmodel.CPUModel, queries [][]float32, k, budget int, results []AsyncResult) sched.QueryFunc {
	return ix.AsyncQueryFuncTuned(model, queries, k, budget, results, nil, autotune.Tuning{})
}

// AsyncQueryFuncTuned is AsyncQueryFunc with a per-query autotune controller:
// every query runs under tn with tuning tu (recall-target early stops and the
// candidate-budget degradation; readahead, a wall-clock-only knob, has no
// meaning on the simulator). A nil tn disables control.
func (ix *Index) AsyncQueryFuncTuned(model costmodel.CPUModel, queries [][]float32, k, budget int, results []AsyncResult, tn *autotune.Tuner, tu autotune.Tuning) sched.QueryFunc {
	if ix.physPerBucket != 1 {
		panic("diskindex: the engine path requires 512-byte bucket blocks")
	}
	if budget == 0 {
		budget = ix.params.S
	}
	pool := &asyncPool{}
	return func(qi int, tc *sched.Ctx, done func()) {
		var run *asyncRun
		if n := len(pool.free); n > 0 {
			run = pool.free[n-1]
			pool.free = pool.free[:n-1]
			run.epoch++
			if run.epoch == 0 {
				clear(run.seen)
				run.epoch = 1
			}
			run.topk.Reset(k)
		} else {
			run = &asyncRun{
				ix:     ix,
				pool:   pool,
				topk:   ann.NewTopK(k),
				seen:   make([]uint32, len(ix.data)),
				epoch:  1,
				proj:   make([]float64, ix.params.L*ix.params.M),
				hashes: make([]uint32, ix.params.L),
				wave:   make([]blockstore.Addr, 0, ix.params.L),
				waveFP: make([]uint32, 0, ix.params.L),
				next:   make([]blockstore.Addr, 0, ix.params.L),
				nextFP: make([]uint32, 0, ix.params.L),
			}
		}
		run.model = model
		run.q = queries[qi]
		run.k = k
		run.baseS = budget
		run.out = &results[qi]
		run.rIdx = 0
		run.checked = 0
		run.outstanding = 0
		run.tn = tn
		if tn != nil {
			run.ctl = tn.Start(tu, autotune.Knobs{}, time.Now())
		}
		ix.checkDim(run.q)
		tc.Charge(costmodel.ToTime(model.QueryFixed))
		if ix.opts.ShareProjections {
			tc.Charge(costmodel.ToTime(model.ProjectionsGEMV(ix.params.Dim, ix.params.L*ix.params.M)))
			ix.families[0].ProjectInto(run.proj, run.q)
		}
		run.startRadius(tc, done)
	}
}

// asyncRun is the per-query state machine.
type asyncRun struct {
	ix    *Index
	pool  *asyncPool
	model costmodel.CPUModel
	q     []float32
	k     int
	out   *AsyncResult

	topk   *ann.TopK
	seen   []uint32
	epoch  uint32
	proj   []float64
	hashes []uint32

	// wave/waveFP hold the current vectored submission (addresses and the
	// fingerprint each block's entries are checked against; table blocks
	// reuse the slot for the full compound-hash fingerprint). next/nextFP
	// assemble the following wave while the current one drains. All four
	// are arenas reused across the run's queries.
	wave   []blockstore.Addr
	waveFP []uint32
	next   []blockstore.Addr
	nextFP []uint32
	// waveOff holds, for the table wave only, each block's byte offset of
	// the bucket-head address.
	waveOff []int

	rIdx        int
	checked     int // per-radius candidate budget consumption
	baseS       int // per-radius candidate budget the query asked for
	budgetS     int // this round's budget, possibly degraded by the controller
	outstanding int // blocks of the current wave still in flight

	// tn/ctl are the autotune hooks (nil without a tuner).
	tn  *autotune.Tuner
	ctl *autotune.Ctl
}

// startRadius begins one (R,c)-NN round: hash, then submit every occupied
// bucket's table block as one vectored batch. The round's completion — and
// with it the advance to the next radius or query termination — funnels
// through waveDone, which holds a sentinel reference while a wave is being
// issued so that inline (synchronous-mode) completions cannot close the
// round early.
func (run *asyncRun) startRadius(tc *sched.Ctx, done func()) {
	ix := run.ix
	p := ix.params
	if run.rIdx >= p.R() {
		run.finish(done)
		return
	}
	run.budgetS = run.baseS
	if run.ctl != nil {
		kn, proceed := run.ctl.BeforeRound(run.rIdx, run.baseS)
		if !proceed {
			run.finish(done)
			return
		}
		run.budgetS = kn.BudgetS
	}
	run.out.Stats.Radii++
	fam := ix.FamilyFor(run.rIdx)
	if !ix.opts.ShareProjections {
		tc.Charge(costmodel.ToTime(run.model.ProjectionsGEMV(p.Dim, p.L*p.M)))
		fam.ProjectInto(run.proj, run.q)
	}
	tc.Charge(costmodel.ToTime(run.model.Combines(p.L * p.M)))
	fam.HashesAt(run.proj, p.Radii[run.rIdx], run.hashes)
	run.checked = 0

	// Step 1: assemble the round's table reads as one vectored batch.
	run.wave = run.wave[:0]
	run.waveFP = run.waveFP[:0]
	run.waveOff = run.waveOff[:0]
	for l := 0; l < p.L; l++ {
		run.out.Stats.Probes++
		idx, fp := lsh.SplitHash(run.hashes[l], ix.u)
		if !ix.isOccupied(run.rIdx, l, idx) {
			continue
		}
		run.out.Stats.NonEmptyProbes++
		blk, off := ix.tableEntryBlock(run.rIdx, l, idx)
		run.wave = append(run.wave, blk)
		run.waveFP = append(run.waveFP, fp)
		run.waveOff = append(run.waveOff, off)
	}
	if len(run.wave) == 0 {
		run.endRadius(tc, done)
		return
	}
	tc.Charge(costmodel.ToTime(run.model.BatchSubmit(len(run.wave))))
	run.outstanding = len(run.wave) + 1 // +1: sentinel until ReadVec returns
	runs := tc.ReadVec(run.wave, func(i int, block []byte) {
		run.onTableBlock(tc, done, i, block)
	})
	run.out.Stats.CoalescedReads += len(run.wave) - runs
	run.waveDone(tc, done) // release the sentinel
}

// onTableBlock handles one completed hash-table read of the current wave
// (end of step 1): decode the bucket head and queue it for the next wave.
func (run *asyncRun) onTableBlock(tc *sched.Ctx, done func(), i int, block []byte) {
	run.out.Stats.TableIOs++
	tc.Charge(costmodel.ToTime(run.model.Scan(1)))
	head := blockstore.Addr(binary.LittleEndian.Uint64(block[run.waveOff[i] : run.waveOff[i]+8]))
	if head != blockstore.Nil && run.checked < run.budgetS {
		// Budget exhaustion makes the remaining chains moot; stale occupancy
		// cannot happen on a frozen index.
		run.next = append(run.next, head)
		run.nextFP = append(run.nextFP, run.waveFP[i])
	}
	run.waveDone(tc, done)
}

// onBucketBlock scans one arrived bucket block (step 3) and queues its chain
// link for the next wave. Distance checks run through the pruned kernel
// against the current k-th squared distance, exactly as on the wall-clock
// paths.
func (run *asyncRun) onBucketBlock(tc *sched.Ctx, done func(), i int, block []byte) {
	ix := run.ix
	run.out.Stats.BucketIOs++
	fp := run.waveFP[i]
	next, count := bucketHeader(block)
	off := HeaderBytes
	truncated := false
	for e := 0; e < count; e++ {
		run.out.Stats.EntriesScanned++
		tc.Charge(costmodel.ToTime(run.model.Scan(1)))
		id, efp := ix.unpackEntry(getUint40(block[off:]))
		off += EntryBytes
		if efp != fp {
			run.out.Stats.FPRejected++
			continue
		}
		if run.checked >= run.budgetS {
			truncated = true
			break
		}
		tc.Charge(costmodel.ToTime(run.model.Dedup(1)))
		if run.seen[id] == run.epoch {
			run.out.Stats.Duplicates++
			continue
		}
		run.seen[id] = run.epoch
		tc.Charge(costmodel.ToTime(run.model.Distance(ix.params.Dim)))
		if sq, ok := vecmath.SqDistBounded(ix.data[id], run.q, run.topk.Worst()); ok {
			run.topk.Push(id, sq)
		}
		run.out.Stats.Checked++
		run.checked++
	}
	if next != blockstore.Nil && !truncated && run.checked < run.budgetS {
		run.next = append(run.next, next)
		run.nextFP = append(run.nextFP, fp)
	}
	run.waveDone(tc, done)
}

// waveDone marks one block of the current wave complete; the last one either
// submits the assembled next wave (step 2/3) or closes the radius.
func (run *asyncRun) waveDone(tc *sched.Ctx, done func()) {
	run.outstanding--
	if run.outstanding > 0 {
		return
	}
	if len(run.next) == 0 {
		run.endRadius(tc, done)
		return
	}
	// Swap the assembled wave in and submit it vectored.
	run.wave, run.next = run.next, run.wave[:0]
	run.waveFP, run.nextFP = run.nextFP, run.waveFP[:0]
	tc.Charge(costmodel.ToTime(run.model.BatchSubmit(len(run.wave))))
	run.outstanding = len(run.wave) + 1
	runs := tc.ReadVec(run.wave, func(i int, block []byte) {
		run.onBucketBlock(tc, done, i, block)
	})
	run.out.Stats.CoalescedReads += len(run.wave) - runs
	run.waveDone(tc, done)
}

// endRadius applies the (R,c)-NN termination test and either finishes the
// query or starts the next round.
func (run *asyncRun) endRadius(tc *sched.Ctx, done func()) {
	// Fold degraded reads (sched serves failed reads as zero blocks) into
	// the round's stats. Each faulted block truncates exactly one chain —
	// a zero table block is a Nil head, a zero bucket block an empty tail
	// — so on this path SkippedChains equals FaultedReads.
	if f := int(tc.FaultedReads()); f > run.out.Stats.FaultedReads {
		run.out.Stats.FaultedReads = f
		run.out.Stats.SkippedChains = f
		run.out.Stats.Partial = 1
	}
	certified := run.certifiedCount()
	if run.topk.Full() && certified >= run.k {
		run.finish(done)
		return
	}
	if run.ctl != nil && run.ctl.AfterRound(run.rIdx, run.topk, certified) {
		run.finish(done)
		return
	}
	run.rIdx++
	run.startRadius(tc, done)
}

// certifiedCount is the (R,c)-NN termination count at the end of the current
// radius round, in squared-distance space: how many accumulated neighbors
// sit inside the certified ball (cR)².
func (run *asyncRun) certifiedCount() int {
	p := run.ix.params
	cr := p.C * p.Radii[run.rIdx]
	return run.topk.CountWithin(cr * cr)
}

func (run *asyncRun) finish(done func()) {
	run.out.Result = run.topk.ResultSq()
	if run.ctl != nil {
		run.ctl.EndLadder(run.topk, run.out.Stats.Radii, run.ix.params.R())
		run.out.Outcome = run.tn.Finish(run.ctl)
		run.ctl = nil
	}
	run.pool.free = append(run.pool.free, run)
	done()
}
