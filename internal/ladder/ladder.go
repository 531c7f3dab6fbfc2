// Package ladder is the E2LSH query algorithm's one loop (paper §2.3, §5.4):
// walk the geometric radius schedule, per radius hash the query, probe the L
// buckets (plus their multi-probe perturbations), verify at most S distinct
// candidates, and stop once k neighbors sit inside c·R. The in-memory
// searcher, the block-at-a-time disk reference and the serving wave searcher
// all run this loop; they differ only in what visiting a bucket and finishing
// a round mean, which is the Rounds interface. Budget, probe order, dedup and
// termination are therefore literally the same code on every engine, which is
// what lets them be compared at equal accuracy.
//
// A driver splits the index's objects into one or more hash partitions
// (shard.Of), and each partition climbs the ladder on its own — its own budget
// per round, top-k, termination test and autotune controller — while the hash
// tables are walked once for all of them. One partition is the plain E2LSH
// ladder; with more, the answer is exactly what a shard router would merge
// from one index per partition built with the same parameters and hash
// families, and the walk reads what the deepest partition's ladder reads, not
// the sum.
//
// The virtual-time simulator is a client too: each simulated query runs
// Driver.Run over the serving wave searcher inside an iter.Pull coroutine,
// which suspends at every read wave until the scheduler's clock has
// delivered the wave's blocks.
package ladder

import (
	"context"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/autotune"
	"e2lshos/internal/lsh"
	"e2lshos/internal/shard"
	"e2lshos/internal/telemetry"
	"e2lshos/internal/vecmath"
)

// Knobs is everything one query may ask for, and the one declaration of it:
// the facade's options fill this struct, the serving layer copies the
// server's and overrides it from a request's fields, and the value rides
// beside the query vector — through the coalescer's queue, the shard scatter
// and the batch workers — to Run. A searcher carries no per-query
// configuration of its own, so one searcher, and one batch, serve queries
// with different knobs side by side.
type Knobs struct {
	// K is the number of neighbors wanted.
	K int
	// Budget caps the distinct candidates verified per radius (the paper's
	// S, its §3.3 accuracy knob); 0 means the index's built-in Params.S.
	Budget int
	// MultiProbe > 0 probes each table's base bucket plus this many
	// perturbed neighbors (§8 extension; see lsh.PerturbationSets).
	MultiProbe int
	// Tuning is the query's SLO contract (recall target, latency budget,
	// out-of-budget policy), which the controllers Tuner starts steer by.
	Tuning autotune.Tuning
	// Trace, when non-nil, receives the per-round project/io/verify/round
	// spans of a sampled query.
	Trace *telemetry.Trace
	// Tuner, when non-nil, steers the run: Run starts one controller per
	// partition, consults it around every round of that partition's ladder —
	// it may lower the budget and multi-probe, gate readahead, and stop the
	// ladder early — and finishes it before returning, folding what it did
	// into Stats. A round probes with the largest multi-probe any live
	// partition's controller allows and reads ahead if any allows it.
	Tuner *autotune.Tuner
	// Admitted is when the query entered the system, where its controllers'
	// latency budget starts (for a coalesced query, admission, so queue wait
	// counts against it); the zero value means when Run starts.
	Admitted time.Time
}

// Rounds is the searcher's side of a run. The driver calls BeginRound once
// the round's hashes are known, Visit for every probe in the reference order
// (table by table, base bucket then its perturbation sets), and EndRound
// after the last probe.
type Rounds interface {
	// BeginRound opens round r; readahead reports whether prefetching the
	// next round is allowed (the controller may have degraded it away).
	BeginRound(ctx context.Context, r int, readahead bool)
	// Visit probes bucket h of table l. It reports spent once the round's
	// budget is exhausted, which ends the round's probing.
	Visit(r, l int, h uint32) (spent bool, err error)
	// EndRound finishes the round: a searcher that only collected probes in
	// Visit fetches and verifies here. It returns the round's demand reads
	// for the trace.
	EndRound(r int) (IO, error)
}

// IO is one round's demand reads: the trace-clock time spent waiting on
// them, summed over the round's reads (verification may run between
// them), with the logical blocks read and how many the cache served. The
// zero value means the round had no separate I/O stage.
type IO struct {
	Wait              time.Duration
	Blocks, CacheHits int64
}

// Driver runs the ladder for one searcher and owns the state every run
// needs: projection and hash buffers, the multi-probe floor arenas, the
// epoch-stamped visited array, each partition's ladder and the running
// query's Stats. The driver counts rounds, probes, candidate checks,
// duplicates and what the controllers did; the searcher's Visit and EndRound
// count everything else straight into the same struct. Radii counts the
// rounds walked, however many partitions took part in each. After warm-up a
// run allocates nothing (multi-probe's perturbation sets aside). Not safe for
// concurrent use.
type Driver struct {
	Stats

	p        lsh.Params
	families []*lsh.Family // one if shared, else one per radius
	share    bool

	proj    []float64
	hashes  []uint32
	floors  []int64
	fracs   []float64
	pfloors []int64
	seen    []uint32
	epoch   uint32

	// parts holds the hash partitions' ladders, at least one; live counts
	// those still verifying in the current round.
	parts  []partition
	live   int
	merged *ann.TopK
	nbs    []ann.Neighbor

	// The running query.
	q     []float32
	data  [][]float32
	trace *telemetry.Trace
}

// partition is one hash partition's ladder: what a shard's own driver would
// hold. A partition that is done (certified, or stopped by its controller)
// or has spent its round's budget has checked ≥ budget, which is the one
// test Verify makes before skipping its candidate.
type partition struct {
	topk    *ann.TopK
	ctl     *autotune.Ctl
	budget  int
	checked int
	radii   int // rounds this partition took part in
	done    bool
}

// New returns a driver over an index's parameters and hash families (one
// shared family, or one per radius), with the visited array sized for n
// objects. The objects are split into max(parts, 1) hash partitions, each
// climbing its own ladder over the one table walk.
func New(p lsh.Params, families []*lsh.Family, share bool, n, parts int) *Driver {
	return &Driver{
		p:        p,
		families: families,
		share:    share,
		proj:     make([]float64, p.L*p.M),
		hashes:   make([]uint32, p.L),
		seen:     make([]uint32, n),
		parts:    make([]partition, max(parts, 1)),
	}
}

// AppendResult appends the last run's neighbors to dst, sorted by ascending
// distance then ID, and returns the extended slice (nil dst gets fresh
// backing). Several partitions' winners are merged in partition order, keyed
// on the rounded distance: exactly the shard router's merge of one index per
// partition.
func (d *Driver) AppendResult(dst []ann.Neighbor) []ann.Neighbor {
	if len(d.parts) == 1 {
		return d.parts[0].topk.AppendResultSq(dst)
	}
	k := d.parts[0].topk.K()
	if d.merged == nil {
		d.merged = ann.NewTopK(k)
	}
	m := d.merged
	m.Reset(k)
	for i := range d.parts {
		d.nbs = d.parts[i].topk.AppendResultSq(d.nbs[:0])
		for _, nb := range d.nbs {
			m.Push(nb.ID, nb.Dist)
		}
	}
	return m.AppendResult(dst)
}

// Proj returns the query's projections under the shared family (valid
// during a run over shared projections).
func (d *Driver) Proj() []float64 { return d.proj }

// Trace returns the running query's span buffer (nil when unsampled).
func (d *Driver) Trace() *telemetry.Trace { return d.trace }

// Run answers one top-k query for q over data, leaving the winners for
// AppendResult and the query's counters in Stats. ctx is polled between
// rounds; on cancellation the neighbors accumulated so far stand and
// ctx.Err() is returned. An error from the searcher empties the
// accumulators. Every controller Run starts is finished before it returns,
// whichever way the run ends.
func (d *Driver) Run(ctx context.Context, rounds Rounds, q []float32, data [][]float32, kn Knobs) error {
	if kn.Budget < 0 || kn.MultiProbe < 0 {
		panic("ladder: negative budget or multi-probe count")
	}
	p := &d.p
	d.Stats = Stats{Queries: 1}
	d.q, d.data, d.trace = q, data, kn.Trace
	if n := len(data); n > len(d.seen) {
		// Inserts grew the dataset past this driver's visited array. Grow
		// with headroom: sized exactly, every insert would cost every
		// searcher a fresh O(n) array on its next query.
		grown := make([]uint32, n+n/8)
		copy(grown, d.seen)
		d.seen = grown
	}
	d.epoch++
	if d.epoch == 0 { // epoch wrapped: clear stamps
		clear(d.seen)
		d.epoch = 1
	}
	budget := kn.Budget
	if budget == 0 {
		budget = p.S
	}
	d.startParts(kn)
	if kn.MultiProbe > 0 && d.floors == nil {
		d.floors = make([]int64, p.L*p.M)
		d.fracs = make([]float64, p.L*p.M)
		d.pfloors = make([]int64, p.M)
	}
	if d.share {
		d.families[0].ProjectInto(d.proj, q)
	}
	tr := kn.Trace
	var err error
	//lsh:ladder
	for r, radius := range p.Radii {
		if err = ctx.Err(); err != nil {
			break
		}
		mp, readahead := d.beginParts(r, budget, kn.MultiProbe)
		if d.live == 0 {
			break
		}
		d.Radii++
		roundStart := tr.Clock()
		fam := d.families[0]
		if !d.share {
			fam = d.families[r]
			fam.ProjectInto(d.proj, q)
		}
		if mp > 0 {
			// Base hashes come from explicit floors so perturbed probes stay
			// coherent with the base probe.
			fam.FloorsAt(d.proj, radius, d.floors, d.fracs)
		} else {
			fam.HashesAt(d.proj, radius, d.hashes)
		}
		projEnd := tr.Clock()
		checked0, probes0, nonEmpty0 := d.Checked, d.Probes, d.NonEmptyProbes
		rounds.BeginRound(ctx, r, readahead)
		var io IO
		if err = d.probe(rounds, fam, r, mp); err == nil {
			io, err = rounds.EndRound(r)
		}
		if err != nil {
			for i := range d.parts {
				d.parts[i].topk.Reset(kn.K)
			}
			break
		}
		if tr.Active() {
			// Without an I/O stage of its own (in memory) the whole table walk
			// is verify. With one, verify is the rest of the round after the
			// projection and the read waits; the two interleave, wave by wave
			// or bucket by bucket, so the spans lay them end to end, reads
			// first.
			end, verifyStart := tr.Clock(), projEnd
			tr.Add(telemetry.StageProject, r, roundStart, projEnd-roundStart, 0, 0)
			if io != (IO{}) {
				tr.Add(telemetry.StageIO, r, projEnd, io.Wait, io.Blocks, io.CacheHits)
				verifyStart += io.Wait
			}
			tr.Add(telemetry.StageVerify, r, verifyStart, end-verifyStart, int64(d.Checked-checked0), 0)
			tr.Add(telemetry.StageRound, r, roundStart, end-roundStart,
				int64(d.Probes-probes0), int64(d.NonEmptyProbes-nonEmpty0))
		}
		cr := p.C * radius
		if d.endParts(r, cr*cr, kn.K) {
			break
		}
	}
	d.finishParts(kn.Tuner, err == nil)
	return err
}

// startParts resets every partition's ladder for a new query and, with a
// tuner, starts each partition's controller from the query's knobs.
func (d *Driver) startParts(kn Knobs) {
	base := autotune.Knobs{MultiProbe: kn.MultiProbe, BudgetS: kn.Budget, Readahead: true}
	start := kn.Admitted
	if kn.Tuner != nil && start.IsZero() {
		start = time.Now()
	}
	for i := range d.parts {
		pt := &d.parts[i]
		if pt.topk == nil {
			pt.topk = ann.NewTopK(kn.K)
		} else {
			pt.topk.Reset(kn.K)
		}
		pt.ctl, pt.radii, pt.done = nil, 0, false
		if kn.Tuner != nil {
			pt.ctl = kn.Tuner.Start(kn.Tuning, base, start)
		}
	}
}

// finishParts hands every partition's controller back to tn and folds its
// outcome into Stats. Only a run that walked its ladder to the end (ended
// is false on a cancellation or a searcher error) closes the ladder first,
// which is what lets the controller train the model on it.
func (d *Driver) finishParts(tn *autotune.Tuner, ended bool) {
	for i := range d.parts {
		pt := &d.parts[i]
		if pt.ctl == nil {
			continue
		}
		if ended {
			pt.ctl.EndLadder(pt.topk, pt.radii, d.p.R())
		}
		o := tn.Finish(pt.ctl)
		pt.ctl = nil
		d.RoundsSkipped += o.RoundsSkipped
		d.DegradedKnobs += o.DegradedKnobs
		if o.BudgetExhausted {
			d.BudgetExhausted++
		}
		if o.RecallStopped {
			d.RecallStopped++
		}
	}
}

// beginParts opens round r for every partition still climbing: it consults
// each partition's controller, sets each live partition's budget (a done one
// gets none), counts the live ones, and returns the round's multi-probe
// count and readahead permission.
func (d *Driver) beginParts(r, budget, mp int) (int, bool) {
	d.live = 0
	probeMP, readahead := 0, false
	for i := range d.parts {
		pt := &d.parts[i]
		pt.budget, pt.checked = 0, 0
		if pt.done {
			continue
		}
		b, pmp, ra := budget, mp, true
		if pt.ctl != nil {
			res, proceed := pt.ctl.BeforeRound(r, budget)
			if !proceed {
				pt.done = true
				continue
			}
			// The controller only ever degrades multi-probe.
			b, pmp, ra = res.BudgetS, min(res.MultiProbe, mp), res.Readahead
		}
		// Verify spends a round once checked reaches the budget, so a zero
		// budget still verifies one candidate.
		pt.budget = max(b, 1)
		pt.radii++
		d.live++
		probeMP, readahead = max(probeMP, pmp), readahead || ra
	}
	return probeMP, readahead
}

// endParts runs every live partition's termination test after round r
// (c·R squared is cr2) and reports whether every partition is done.
func (d *Driver) endParts(r int, cr2 float64, k int) bool {
	all := true
	for i := range d.parts {
		pt := &d.parts[i]
		if pt.done {
			continue
		}
		certified := pt.topk.CountWithin(cr2)
		if pt.topk.Full() && certified >= k {
			pt.done = true
		} else if pt.ctl != nil && pt.ctl.AfterRound(r, pt.topk, certified) {
			pt.done = true
		} else {
			all = false
		}
	}
	return all
}

// probe enumerates round r's probes in the reference order, stopping at the
// first Visit that reports the budget spent.
//
//lsh:hotpath
func (d *Driver) probe(rounds Rounds, fam *lsh.Family, r, mp int) error {
	m := d.p.M
	for l := 0; l < d.p.L; l++ {
		if mp == 0 {
			d.Probes++
			if spent, err := rounds.Visit(r, l, d.hashes[l]); spent || err != nil {
				return err
			}
			continue
		}
		base := d.floors[l*m : (l+1)*m]
		d.Probes++
		if spent, err := rounds.Visit(r, l, fam.CombineFloors(l, base)); spent || err != nil {
			return err
		}
		for _, set := range lsh.PerturbationSets(d.fracs[l*m:(l+1)*m], mp) {
			copy(d.pfloors, base)
			for _, pert := range set {
				d.pfloors[pert.Coord] += int64(pert.Delta)
			}
			d.Probes++
			if spent, err := rounds.Visit(r, l, fam.CombineFloors(l, d.pfloors)); spent || err != nil {
				return err
			}
		}
	}
	return nil
}

// Skips reports whether Verify, offered id now, would settle it without a
// distance check: its partition has spent the round's budget (or is done),
// or this query has already seen it. It changes nothing, and once true it
// stays true for the rest of the round, so a searcher that gathers a batch
// of candidates can leave such an id's vector unloaded; the id still goes
// through Verify, which counts it.
//
//lsh:hotpath
func (d *Driver) Skips(id uint32) bool {
	pt := d.partOf(id)
	return pt.checked >= pt.budget || d.seen[id] == d.epoch
}

// partOf returns the hash partition that owns id.
//
//lsh:hotpath
func (d *Driver) partOf(id uint32) *partition {
	if n := len(d.parts); n > 1 {
		return &d.parts[shard.Of(id, n)]
	}
	return &d.parts[0]
}

// Verify offers one bucket entry as a candidate to its partition's ladder:
// an object already seen by this query counts as a duplicate, a new one costs
// a distance check, pruned against the partition's current k-th squared
// distance (exact — an abandoned candidate can never enter the top-k; see
// vecmath.SqDistBounded). A partition that is done or has spent this round's
// budget skips the candidate without marking it seen, exactly as a shard's
// round that stopped verifying leaves its remaining candidates for a later
// round. Verify reports whether every live partition's budget is now spent,
// which ends the round.
//
//lsh:hotpath
func (d *Driver) Verify(id uint32) bool {
	pt := d.partOf(id)
	if pt.checked >= pt.budget {
		return false
	}
	if d.seen[id] == d.epoch {
		d.Duplicates++
		return false
	}
	d.seen[id] = d.epoch
	if sq, ok := vecmath.SqDistBounded(d.data[id], d.q, pt.topk.Worst()); ok {
		pt.topk.Push(id, sq)
	}
	d.Checked++
	pt.checked++
	if pt.checked < pt.budget {
		return false
	}
	d.live--
	return d.live == 0
}
