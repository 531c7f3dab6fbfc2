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
// epoch-stamped visited array, the top-k accumulator and the running query's
// Stats. The driver counts rounds, probes, candidate checks and duplicates;
// the searcher's Visit and EndRound count everything else straight into the
// same struct. After warm-up a run allocates nothing (multi-probe's
// perturbation sets aside). Not safe for concurrent use.
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

	// The running query.
	q       []float32
	data    [][]float32
	trace   *telemetry.Trace
	budget  int // this round's candidate budget
	checked int // candidates verified this round
}

// New returns a driver over an index's parameters and hash families (one
// shared family, or one per radius), with the visited array sized for n
// objects.
func New(p lsh.Params, families []*lsh.Family, share bool, n int) *Driver {
	return &Driver{
		p:        p,
		families: families,
		share:    share,
		proj:     make([]float64, p.L*p.M),
		hashes:   make([]uint32, p.L),
		seen:     make([]uint32, n),
	}
}

// TopK returns the accumulator holding the last run's winners, keyed by
// squared distance.
func (d *Driver) TopK() *ann.TopK { return d.topk }

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
		if c := kn.Ctl; c != nil {
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
		certified := topk.CountWithin(cr * cr)
		if topk.Full() && certified >= kn.K {
			break
		}
		if c := kn.Ctl; c != nil && c.AfterRound(r, topk, certified) {
			break
		}
	}
	if c := kn.Ctl; c != nil {
		c.EndLadder(topk, d.Radii, p.R())
	}
	return nil
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
// the round's budget is now spent.
//
//lsh:hotpath
func (d *Driver) Verify(id uint32) bool {
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
