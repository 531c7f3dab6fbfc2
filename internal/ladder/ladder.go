// Package ladder is the E2LSH query algorithm's one wall-clock loop (paper
// §2.3, §5.4): walk the geometric radius schedule, per radius hash the query,
// probe the L buckets (plus their multi-probe perturbations), verify at most
// S distinct candidates, and stop once k neighbors sit inside c·R. The
// in-memory searcher, the block-at-a-time disk reference and the serving wave
// searcher all run this loop; they differ only in what visiting a bucket and
// finishing a round mean, which is the Rounds interface. Budget, probe order,
// dedup and termination are therefore literally the same code on every
// engine, which is what lets them be compared at equal accuracy.
//
// A driver may split the index's objects into hash partitions (shard.Of):
// each partition then climbs the ladder on its own — its own budget per
// round, top-k and termination test — while the hash tables are walked once
// for all of them. The answer is exactly what a shard router would merge from
// one index per partition built with the same parameters and hash families,
// and the walk reads what the deepest partition's ladder reads, not the sum.
//
// The virtual-time engine path (diskindex's asyncRun) is deliberately not a
// client: a callback state machine on the simulator's clock cannot share a
// blocking loop, and staying separate makes it the independent cross-check
// of this one.
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
	// out-of-budget policy). The run itself does not read it: whoever starts
	// the query's controller does, and hands the controller over as Ctl.
	Tuning autotune.Tuning
	// Trace, when non-nil, receives the per-round project/io/verify/round
	// spans of a sampled query.
	Trace *telemetry.Trace
	// Ctl, when non-nil, is the autotune controller consulted around every
	// round; it may lower the budget and multi-probe, gate readahead, and
	// stop the ladder early.
	Ctl *autotune.Ctl
	// Ctls replaces Ctl on a partitioned driver: one controller per
	// partition, each steering its partition's ladder. A round probes with
	// the largest multi-probe any live partition's controller allows and
	// reads ahead if any allows it.
	Ctls []*autotune.Ctl
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
	// Visit fetches and verifies here. It returns the round's demand-read
	// window for the trace.
	EndRound(r int) (IO, error)
}

// IO is one round's demand-read window on the trace clock, with the logical
// blocks read and how many the cache served. The zero value means the round
// had no separate I/O stage.
type IO struct {
	Start, End        time.Duration
	Blocks, CacheHits int64
}

// Driver runs the ladder for one searcher and owns the state every run
// needs: projection and hash buffers, the multi-probe floor arenas, the
// epoch-stamped visited array, the top-k accumulator (one per partition on a
// partitioned driver) and the running query's Stats. The driver counts
// rounds, probes, candidate checks and duplicates; the searcher's Visit and
// EndRound count everything else straight into the same struct. Radii counts
// the rounds walked, however many partitions took part in each. After
// warm-up a run allocates nothing (multi-probe's perturbation sets aside).
// Not safe for concurrent use.
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
	topk    *ann.TopK

	// parts holds the partitions' ladders of a partitioned driver (nil
	// otherwise); live counts those still verifying in the current round.
	parts  []partition
	live   int
	merged *ann.TopK
	nbs    []ann.Neighbor

	// The running query.
	q       []float32
	data    [][]float32
	trace   *telemetry.Trace
	budget  int // this round's candidate budget
	checked int // candidates verified this round
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
// objects. parts > 1 splits the objects into that many hash partitions, each
// climbing its own ladder over the one table walk; parts ≤ 1 runs one ladder.
func New(p lsh.Params, families []*lsh.Family, share bool, n, parts int) *Driver {
	d := &Driver{
		p:        p,
		families: families,
		share:    share,
		proj:     make([]float64, p.L*p.M),
		hashes:   make([]uint32, p.L),
		seen:     make([]uint32, n),
	}
	if parts > 1 {
		d.parts = make([]partition, parts)
	}
	return d
}

// AppendResult appends the last run's neighbors to dst, sorted by ascending
// distance then ID, and returns the extended slice (nil dst gets fresh
// backing). A partitioned driver merges its partitions' winners in partition
// order, keyed on the rounded distance: exactly the shard router's merge of
// one index per partition.
func (d *Driver) AppendResult(dst []ann.Neighbor) []ann.Neighbor {
	if d.parts == nil {
		return d.topk.AppendResultSq(dst)
	}
	m := d.merged
	m.Reset(d.parts[0].topk.K())
	for i := range d.parts {
		d.nbs = d.parts[i].topk.AppendResultSq(d.nbs[:0])
		for _, nb := range d.nbs {
			m.Push(nb.ID, nb.Dist)
		}
	}
	return m.AppendResult(dst)
}

// Query returns the running query's vector.
func (d *Driver) Query() []float32 { return d.q }

// Proj returns the query's projections under the shared family (valid
// during a run over shared projections).
func (d *Driver) Proj() []float64 { return d.proj }

// Trace returns the running query's span buffer (nil when unsampled).
func (d *Driver) Trace() *telemetry.Trace { return d.trace }

// Run answers one top-k query for q over data, leaving the winners in TopK
// and the query's counters in Stats. ctx is polled between rounds; on
// cancellation the neighbors accumulated so far stand and ctx.Err() is
// returned. An error from the searcher empties the accumulator.
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
	if d.topk == nil {
		d.topk = ann.NewTopK(kn.K)
	} else {
		d.topk.Reset(kn.K)
	}
	topk := d.topk
	budget := kn.Budget
	if budget == 0 {
		budget = p.S
	}
	if d.parts != nil {
		d.startParts(kn)
	}
	if kn.MultiProbe > 0 && d.floors == nil {
		d.floors = make([]int64, p.L*p.M)
		d.fracs = make([]float64, p.L*p.M)
		d.pfloors = make([]int64, p.M)
	}
	if d.share {
		d.families[0].ProjectInto(d.proj, q)
	}
	tr := kn.Trace
	//lsh:ladder
	for r, radius := range p.Radii {
		if err := ctx.Err(); err != nil {
			return err
		}
		mp, readahead := kn.MultiProbe, true
		d.budget = budget
		if d.parts != nil {
			if mp, readahead = d.beginParts(r, budget, mp); d.live == 0 {
				break
			}
		} else if c := kn.Ctl; c != nil {
			res, proceed := c.BeforeRound(r, budget)
			if !proceed {
				break
			}
			d.budget, readahead = res.BudgetS, res.Readahead
			// The controller only ever degrades multi-probe.
			if res.MultiProbe < mp {
				mp = res.MultiProbe
			}
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
		d.checked = 0
		err := d.probe(rounds, fam, r, mp)
		var io IO
		if err == nil {
			io, err = rounds.EndRound(r)
		}
		if err != nil {
			topk.Reset(kn.K)
			for i := range d.parts {
				d.parts[i].topk.Reset(kn.K)
			}
			return err
		}
		if tr.Active() {
			// Without an I/O stage of its own (in memory, or reads and checks
			// interleaved bucket by bucket) the whole table walk is verify.
			end, verifyStart := tr.Clock(), projEnd
			tr.Add(telemetry.StageProject, r, roundStart, projEnd-roundStart, 0, 0)
			if io != (IO{}) {
				tr.Add(telemetry.StageIO, r, io.Start, io.End-io.Start, io.Blocks, io.CacheHits)
				verifyStart = io.End
			}
			tr.Add(telemetry.StageVerify, r, verifyStart, end-verifyStart, int64(d.Checked-checked0), 0)
			tr.Add(telemetry.StageRound, r, roundStart, end-roundStart,
				int64(d.Probes-probes0), int64(d.NonEmptyProbes-nonEmpty0))
		}
		cr := p.C * radius
		if d.parts != nil {
			if d.endParts(r, cr*cr, kn.K) {
				break
			}
			continue
		}
		certified := topk.CountWithin(cr * cr)
		if topk.Full() && certified >= kn.K {
			break
		}
		if c := kn.Ctl; c != nil && c.AfterRound(r, topk, certified) {
			break
		}
	}
	for i := range d.parts {
		if pt := &d.parts[i]; pt.ctl != nil {
			pt.ctl.EndLadder(pt.topk, pt.radii, p.R())
		}
	}
	if c := kn.Ctl; c != nil {
		c.EndLadder(topk, d.Radii, p.R())
	}
	return nil
}

// startParts resets every partition's ladder for a new query.
func (d *Driver) startParts(kn Knobs) {
	if kn.Ctl != nil || (kn.Ctls != nil && len(kn.Ctls) != len(d.parts)) {
		panic("ladder: a partitioned run takes one controller per partition in Knobs.Ctls")
	}
	if d.merged == nil {
		d.merged = ann.NewTopK(kn.K)
	}
	for i := range d.parts {
		pt := &d.parts[i]
		if pt.topk == nil {
			pt.topk = ann.NewTopK(kn.K)
		} else {
			pt.topk.Reset(kn.K)
		}
		pt.ctl, pt.radii, pt.done = nil, 0, false
		if kn.Ctls != nil {
			pt.ctl = kn.Ctls[i]
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
			b, pmp, ra = res.BudgetS, min(res.MultiProbe, mp), res.Readahead
		}
		// Verify spends a round once checked reaches the budget, so a zero
		// budget still verifies one candidate, as it does unpartitioned.
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

// Verify offers one bucket entry as a candidate: an object already seen by
// this query counts as a duplicate, a new one costs a distance check, pruned
// against the current k-th squared distance (exact — an abandoned candidate
// can never enter the top-k; see vecmath.SqDistBounded). It reports whether
// the round's budget is now spent — on a partitioned driver, every live
// partition's.
//
//lsh:hotpath
func (d *Driver) Verify(id uint32) bool {
	if d.parts != nil {
		return d.verifyPart(id)
	}
	if d.seen[id] == d.epoch {
		d.Duplicates++
		return false
	}
	d.seen[id] = d.epoch
	if sq, ok := vecmath.SqDistBounded(d.data[id], d.q, d.topk.Worst()); ok {
		d.topk.Push(id, sq)
	}
	d.Checked++
	d.checked++
	return d.checked >= d.budget
}

// verifyPart is Verify on a partitioned driver: the candidate goes to its
// partition's ladder. A partition that is done or has spent this round's
// budget skips it without marking it seen, exactly as a shard's round that
// stopped verifying leaves its remaining candidates for a later round.
//
//lsh:hotpath
func (d *Driver) verifyPart(id uint32) bool {
	pt := &d.parts[shard.Of(id, len(d.parts))]
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
