package diskindex

import (
	"context"
	"iter"

	"e2lshos/internal/ann"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/costmodel"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/ladder"
	"e2lshos/internal/sched"
	"e2lshos/internal/simclock"
)

// AsyncResult collects one query's outcome from an engine run.
type AsyncResult struct {
	Result ann.Result
	Stats  Stats
}

// AsyncQueryFunc adapts the index to the scheduling engine: the returned
// sched.QueryFunc answers queries[i] for top-k under a per-radius candidate
// budget (0 means the index's built-in S) and stores the outcome in
// results[i]. Every query runs the serving WaveSearcher's ladder, inside an
// iter.Pull coroutine, and reads every round as waves, as the WaveSearcher
// does with an engine attached (never walking it in line): where the
// wall-clock searcher reads a wave — a round's table blocks, then each chain
// depth — the coroutine yields the wave to the scheduler, which submits it
// as one vectored batch (sched.Ctx.ReadVec, §5.4) and resumes the query once
// its last block has arrived. The neighbors are therefore bitwise the
// reference Searcher's, and the reads exactly those of a WaveSearcher with
// an ioengine attached, at any budget and partition count.
//
// CPU work is charged to the virtual clock through the shared cost model, so
// the same function serves both the asynchronous (Fig 1B) and the
// synchronous/mmap (Fig 1A, §6.5) engine; in synchronous mode each wave
// degrades to blocking per-block reads. A block read that fails at the store
// arrives as a zero block, which ends its chain, and the query is marked
// partial.
//
// The index must stay frozen for the batch: a suspended query holds no update
// lock, since a writer queued behind it would block the next query's read
// lock, and with it the scheduler's single goroutine. Every query's coroutine
// has ended by the time it reports done.
func (ix *Index) AsyncQueryFunc(model costmodel.CPUModel, queries [][]float32, k, budget int, results []AsyncResult) sched.QueryFunc {
	kn := ladder.Knobs{K: k, Budget: budget}
	// The scheduler runs its whole batch on one goroutine, so a plain stack
	// free list suffices. At most the admission depth (CPUs × contexts) of
	// searchers are live, each with a visited array sized to the database,
	// reused across the rest of the batch.
	var free []*simSearcher
	return func(qi int, tc *sched.Ctx, done func()) {
		var s *simSearcher
		if n := len(free); n > 0 {
			s, free = free[n-1], free[:n-1]
		} else {
			s = ix.newSimSearcher(model, &free)
		}
		q := queries[qi]
		ix.checkDim(q)
		s.tc, s.out, s.done = tc, &results[qi], done
		tc.Charge(costmodel.ToTime(model.QueryFixed))
		tc.Charge(costmodel.ToTime(model.ProjectionsGEMV(ix.params.Dim, ix.params.L*ix.params.M)))
		s.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			s.yield = yield
			//lsh:ctxok a virtual-time query is never cancelled
			if err := s.lad.Run(context.Background(), s, q, ix.data, kn); err != nil {
				panic("diskindex: simulated query failed: " + err.Error())
			}
		})
		s.resume()
	}
}

// simSearcher is a WaveSearcher whose waves are read in virtual time. It is
// the driver's Rounds, adding the cost model's charges around the serving
// searcher's rounds, and its read hook hands each wave to the scheduler side.
type simSearcher struct {
	WaveSearcher
	model costmodel.CPUModel
	free  *[]*simSearcher

	// The running query: its scheduler context, where its outcome goes, and
	// the coroutine the ladder runs in.
	tc    *sched.Ctx
	out   *AsyncResult
	done  func()
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// checked and dups are the driver's counters at the last verification
	// charge.
	checked, dups int

	// The suspended wave: its addresses and destinations, whether it is a
	// round's table wave, the coalesced runs ReadVec charged, and how many
	// blocks are still in flight. arrive is onBlock, bound once so that
	// submitting a wave allocates nothing.
	wave        []blockstore.Addr
	into        [][]byte
	table       bool
	runs        int
	outstanding int
	arrive      func(i int, block []byte)
}

// newSimSearcher returns a searcher that returns itself to free once its
// query is done.
func (ix *Index) newSimSearcher(model costmodel.CPUModel, free *[]*simSearcher) *simSearcher {
	s := &simSearcher{model: model, free: free}
	s.init(ix, s)
	s.sizeArenas(ix.params.L)
	// The scheduler issues a round whole, as the paper's io_uring design does.
	s.whole = true
	s.read = s.suspend
	s.arrive = s.onBlock
	return s
}

// BeginRound implements ladder.Rounds: it charges the round's hashing and
// opens the WaveSearcher's round. Virtual time has no prefetcher, so
// readahead stays off.
func (s *simSearcher) BeginRound(ctx context.Context, r int, _ bool) {
	p := s.ix.params
	s.tc.Charge(costmodel.ToTime(s.model.Combines(p.L * p.M)))
	s.table = true
	s.WaveSearcher.BeginRound(ctx, r, false)
}

// EndRound implements ladder.Rounds: the WaveSearcher reads and verifies
// the round, the verifications after its last wave are charged (suspend
// charges those before each wave), and the round's faulted reads are folded
// in. Each faulted block ends exactly one chain — a zero table block is a
// Nil head, a zero bucket block an empty tail — so SkippedChains equals
// FaultedReads.
func (s *simSearcher) EndRound(r int) (ladder.IO, error) {
	st := &s.lad.Stats
	s.checked, s.dups = st.Checked, st.Duplicates
	io, err := s.WaveSearcher.EndRound(r)
	s.chargeVerified()
	if f := int(s.tc.FaultedReads()); f > st.FaultedReads {
		st.FaultedReads, st.SkippedChains, st.Partial = f, f, 1
	}
	return io, err
}

// chargeVerified charges the verifications done since the last charge: one
// seen-set operation per candidate offered, one distance per candidate
// checked.
func (s *simSearcher) chargeVerified() {
	st := &s.lad.Stats
	checked := st.Checked - s.checked
	s.tc.Charge(costmodel.ToTime(s.model.Dedup(checked + st.Duplicates - s.dups)))
	s.tc.Charge(simclock.Time(checked) * costmodel.ToTime(s.model.Distance(s.ix.params.Dim)))
	s.checked, s.dups = st.Checked, st.Duplicates
}

// suspend is the read hook, on the coroutine's side: it charges the
// verifications the WaveSearcher ran since its previous wave and the batch
// assembly, stashes the wave and yields until every block has been copied
// into dsts. Failed reads arrived as zero blocks, so every block is reported
// intact.
func (s *simSearcher) suspend(addrs []blockstore.Addr, dsts [][]byte, bst *ioengine.BatchStats) ([]bool, error) {
	s.chargeVerified()
	s.tc.Charge(costmodel.ToTime(s.model.BatchSubmit(len(addrs))))
	s.wave, s.into = addrs, dsts
	s.yield(struct{}{})
	s.table = false
	bst.CoalescedReads += len(addrs) - s.runs
	return nil, nil
}

// resume runs the query's coroutine up to its next wave and submits it, or,
// once the ladder has returned, publishes the outcome and retires the query.
func (s *simSearcher) resume() {
	if _, ok := s.next(); ok {
		s.outstanding = len(s.wave) + 1 // +1: sentinel until ReadVec returns
		s.runs = s.tc.ReadVec(s.wave, s.arrive)
		s.arrived() // release the sentinel
		return
	}
	*s.out = AsyncResult{Result: ann.Result{Neighbors: s.lad.AppendResult(nil)}, Stats: s.lad.Stats}
	*s.free = append(*s.free, s)
	s.done()
}

// onBlock is ReadVec's continuation for block i of the wave: it copies the
// block out of the engine's buffer and charges its scan — the slot of a
// table block, the probed bucket's entries of a bucket block.
func (s *simSearcher) onBlock(i int, block []byte) {
	copy(s.into[i], block)
	if s.table {
		s.tc.Charge(costmodel.ToTime(s.model.Scan(1)))
	} else {
		_, lo, hi := s.heads[i].span(block)
		s.tc.Charge(costmodel.ToTime(s.model.Scan(hi - lo)))
	}
	s.arrived()
}

// arrived counts one block of the wave in; the last resumes the query.
func (s *simSearcher) arrived() {
	s.outstanding--
	if s.outstanding == 0 {
		s.resume()
	}
}
