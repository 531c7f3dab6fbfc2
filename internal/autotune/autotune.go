// Package autotune adapts per-query work to recall and latency SLOs at
// runtime, without rebuilding the index. Two cooperating pieces:
//
//   - A per-engine online Model of self-recall: the fraction of the full
//     ladder's final top-k already present, conditioned on the query's own
//     certification progress (how many of its k members sit inside the
//     current certified ball) and top-k stability (how many consecutive
//     rounds left the accumulator unchanged), learned from queries that run
//     the whole ladder, plus a per-round duration EWMA for latency
//     prediction.
//   - A per-query controller (Ctl) threaded into the radius-ladder loops:
//     it stops the ladder early once the estimated recall crosses the
//     query's target, and under a latency budget degrades the execution
//     knobs (readahead, multi-probe, candidate budget) mid-query
//     before giving up rounds — graceful degradation instead of shedding.
//
// The Tuner is the engine-side anchor: it owns the Model, pools Ctls so a
// tuned query allocates nothing in steady state, and keeps a small fraction
// of tuned queries on the full ladder (exploration) so the model tracks
// workload drift. A closed guardrail loop feeds shadow-scored served recall
// back into the model's safety margin: if served recall drops below target,
// the margin widens and early stops become more conservative.
package autotune

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"e2lshos/internal/ann"
)

// DegradePolicy selects how a query out of latency budget behaves.
type DegradePolicy uint8

const (
	// DegradeKnobs (the default) walks the degradation ladder — readahead
	// off, multi-probe halved then off, candidate budget quartered — and
	// only stops the radius ladder once every knob is exhausted.
	DegradeKnobs DegradePolicy = iota
	// DegradeStop skips knob degradation: the query runs rounds at full
	// quality and stops the ladder as soon as the budget cannot cover the
	// next round.
	DegradeStop
)

// ParseDegradePolicy maps the wire and flag spellings ("", "knobs", "stop") to
// a policy.
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	switch s {
	case "", "knobs":
		return DegradeKnobs, nil
	case "stop":
		return DegradeStop, nil
	}
	return 0, fmt.Errorf("autotune: unknown degrade policy %q (want \"knobs\" or \"stop\")", s)
}

// String returns the canonical spelling.
func (p DegradePolicy) String() string {
	if p == DegradeStop {
		return "stop"
	}
	return "knobs"
}

// Tuning is one query's SLO contract. The zero value asks for nothing: the
// ladder runs exactly as without a controller (such queries still train the
// model, for free, since they run to natural termination).
type Tuning struct {
	// RecallTarget in (0,1) stops the ladder once the model-estimated
	// self-recall (minus the safety margin) reaches it. 0 disables.
	RecallTarget float64
	// LatencyBudget bounds the query's wall time, measured from Start's
	// timestamp (admission, for coalesced queries); as it runs out the
	// controller degrades execution knobs mid-query (or stops, per Degrade)
	// instead of shedding the query. 0 disables.
	LatencyBudget time.Duration
	// Degrade selects the out-of-budget behavior.
	Degrade DegradePolicy
}

// Active reports whether the tuning asks for any control at all.
func (t Tuning) Active() bool { return t.RecallTarget > 0 || t.LatencyBudget > 0 }

// Knobs are the degradable execution knobs of one ladder round, resolved
// per round by Ctl.BeforeRound. Engines honor the knobs they have.
type Knobs struct {
	// MultiProbe is the number of perturbed probes per table.
	MultiProbe int
	// BudgetS is the per-radius verified-candidate cap (the paper's S).
	BudgetS int
	// Readahead gates next-round prefetching.
	Readahead bool
}

// degradation ladder: level i applies every step up to i. levelScale[i] is
// the predicted round-cost multiplier at that level, used to decide how far
// to escalate before the next round starts.
const maxDegradeLevel = 4

var levelScale = [maxDegradeLevel + 1]float64{1, 0.9, 0.75, 0.6, 0.4}

// applyLevel resolves the effective knobs at one degradation level.
func applyLevel(kn Knobs, level int) Knobs {
	if level >= 1 {
		kn.Readahead = false
	}
	if level >= 2 {
		kn.MultiProbe /= 2
	}
	if level >= 3 {
		kn.MultiProbe = 0
	}
	if level >= 4 {
		if kn.BudgetS > 4 {
			kn.BudgetS = kn.BudgetS / 4
		}
	}
	return kn
}

// Outcome summarizes what the controller did to one query, in the units the
// facade's Stats counters surface.
type Outcome struct {
	// RoundsSkipped is how many ladder rounds the controller cut relative
	// to the full schedule (zero when the ladder ended naturally).
	RoundsSkipped int
	// BudgetExhausted reports a latency-budget stop.
	BudgetExhausted bool
	// DegradedKnobs counts knob-degradation steps taken mid-query.
	DegradedKnobs int
	// RecallStopped reports a recall-target early stop.
	RecallStopped bool
}

// Config tunes a Tuner. The zero value selects the defaults.
type Config struct {
	// MinTrain is how many full-ladder observations the model needs before
	// recall-target early stops are allowed (default 16).
	MinTrain int
	// Explore keeps 1-in-Explore recall-targeted queries on the full
	// ladder so the model keeps learning under sustained tuned traffic
	// (default 32).
	Explore int
	// Margin is the base safety margin subtracted from the estimated
	// recall before comparing against the target (default 0.02). The
	// adaptive guardrail margin from ObserveServedRecall adds to it.
	Margin float64
}

func (c Config) withDefaults() Config {
	if c.MinTrain <= 0 {
		c.MinTrain = 16
	}
	if c.Explore <= 0 {
		c.Explore = 32
	}
	if c.Margin == 0 {
		c.Margin = 0.02
	}
	return c
}

// Tuner is the per-engine controller factory: it owns the recall/latency
// model and recycles per-query controllers. Safe for concurrent use.
type Tuner struct {
	cfg   Config
	model Model
	seq   atomic.Uint64
	pool  sync.Pool
}

// New creates a tuner with cfg.
func New(cfg Config) *Tuner {
	return &Tuner{cfg: cfg.withDefaults()}
}

// Start checks out a controller for one query. base holds the query's
// resolved knobs (BudgetS 0 means "engine default"); start is when the query
// entered the system — for coalesced queries, admission time, so queue wait
// counts against the budget. Finish must be called exactly once per Start.
func (t *Tuner) Start(tu Tuning, base Knobs, start time.Time) *Ctl {
	c, _ := t.pool.Get().(*Ctl)
	if c == nil {
		c = new(Ctl)
	}
	snaps, certs, stables, final := c.snaps, c.certs, c.stables, c.final
	*c = Ctl{t: t, tu: tu, base: base, start: start, snaps: snaps, certs: certs, stables: stables, final: final}
	// Exploration and cold-model queries run the full ladder and train the
	// self-recall model; queries with no recall target terminate naturally
	// anyway, so they always train.
	if tu.RecallTarget <= 0 {
		c.train = true
	} else if t.model.Trained() < t.cfg.MinTrain || t.seq.Add(1)%uint64(t.cfg.Explore) == 0 {
		c.train = true
	}
	return c
}

// Finish folds the query's training data into the model, returns the
// controller's outcome, and recycles it. c must not be used afterwards.
func (t *Tuner) Finish(c *Ctl) Outcome {
	o := Outcome{
		BudgetExhausted: c.budgetStop,
		DegradedKnobs:   c.degraded,
		RecallStopped:   c.recallStop,
	}
	if c.stopped && c.ladderLen > c.roundsRun {
		o.RoundsSkipped = c.ladderLen - c.roundsRun
	}
	if c.ended && c.train && !c.stopped && c.roundsRun > 0 && len(c.final) > 0 {
		// Only the rounds this query snapshotted: the arena may hold stale
		// entries from a longer previous query of the pooled Ctl.
		t.model.ObserveLadder(c.snaps[:c.snapN], c.certs[:c.snapN], c.stables[:c.snapN], c.k, c.final)
	}
	c.t = nil
	t.pool.Put(c)
	return o
}

// ObserveServedRecall feeds one shadow-scored served recall back into the
// guardrail margin: below-target observations widen the safety margin
// (early stops get more conservative), on-target observations decay it.
func (t *Tuner) ObserveServedRecall(target, recall float64) {
	t.model.ObserveServedRecall(target, recall)
}

// Snapshot exposes the model state for metrics and tests.
func (t *Tuner) Snapshot() ModelSnapshot { return t.model.Snapshot() }

// Ctl steers one query's ladder (with hash partitions, one partition's). The
// ladder loop checks it out of a Tuner, calls it around every round
// (BeforeRound / AfterRound, then EndLadder), and returns it via
// Tuner.Finish. Not safe for concurrent use.
type Ctl struct {
	t     *Tuner
	tu    Tuning
	base  Knobs
	start time.Time
	lastT time.Time

	level      int
	degraded   int
	train      bool
	stopped    bool
	recallStop bool
	budgetStop bool
	ended      bool
	roundsRun  int
	ladderLen  int
	snapN      int
	k          int

	// Top-k change detection across rounds: stable counts consecutive rounds
	// whose round left the accumulator untouched (same length and same worst
	// key — an insertion or displacement moves the worst key in all but
	// measure-zero float ties).
	prevLen   int
	prevWorst float64
	stable    int

	// Per-round top-k membership snapshots, certified counts, and stability
	// counters (training queries only) and the final membership, arena-reused
	// across the pooled Ctl's queries.
	snaps   [][]uint32
	certs   []int
	stables []int
	final   []uint32
}

// Training reports whether this query runs the full ladder to train the
// model (recall-target early stops are disabled; the latency budget still
// applies).
func (c *Ctl) Training() bool { return c.train }

// BeforeRound resolves the knobs for ladder round rIdx and reports whether
// the round should run at all. defaultS is the engine's built-in per-radius
// candidate budget, substituted when the query didn't set one. Round 0
// always proceeds, and a query whose top-k is still empty is never stopped —
// an empty answer is load shedding by another name; such a query runs its
// next round fully degraded instead (or untouched under DegradeStop, which
// promised not to trade quality for time). Both rules serve the same
// contract: a query under any budget still returns its best effort.
func (c *Ctl) BeforeRound(rIdx, defaultS int) (Knobs, bool) {
	kn := c.base
	if kn.BudgetS == 0 {
		kn.BudgetS = defaultS
	}
	c.lastT = time.Now()
	if c.tu.LatencyBudget <= 0 || rIdx == 0 {
		return applyLevel(kn, c.level), true
	}
	stop := func() (Knobs, bool) {
		if c.prevLen > 0 {
			c.stopped, c.budgetStop = true, true
			return kn, false
		}
		if c.tu.Degrade != DegradeStop && c.level < maxDegradeLevel {
			c.degraded += maxDegradeLevel - c.level
			c.level = maxDegradeLevel
		}
		return applyLevel(kn, c.level), true
	}
	remaining := c.tu.LatencyBudget - c.lastT.Sub(c.start)
	if remaining <= 0 {
		return stop()
	}
	if pred := c.t.model.PredictRound(rIdx); pred > 0 && remaining < pred {
		if c.tu.Degrade == DegradeStop {
			return stop()
		}
		// Escalate the degradation ladder until the scaled prediction fits.
		for c.level < maxDegradeLevel && remaining < time.Duration(float64(pred)*levelScale[c.level]) {
			c.level++
			c.degraded++
		}
		if remaining < time.Duration(float64(pred)*levelScale[c.level]) {
			// Fully degraded and still over budget: stop the ladder.
			return stop()
		}
	}
	return applyLevel(kn, c.level), true
}

// AfterRound records the round's duration, snapshots the top-k membership on
// training queries, and reports whether the ladder should stop early on the
// recall target. certified is the round's (R,c)-NN termination count —
// topk.CountWithin((cR)²) — which the ladder loop computes anyway; it is the
// model's conditioning variable. Call AfterRound after the round's
// termination test (a natural stop is not an early stop).
func (c *Ctl) AfterRound(rIdx int, topk *ann.TopK, certified int) bool {
	now := time.Now()
	c.t.model.ObserveRound(rIdx, now.Sub(c.lastT))
	c.roundsRun = rIdx + 1
	c.k = topk.K()
	// Stability: did this round change the top-k at all? Round 0 always
	// counts as changed (prevWorst's zero value can't match a real key).
	if l, w := topk.Len(), topk.Worst(); rIdx > 0 && l == c.prevLen && w == c.prevWorst {
		c.stable++
	} else {
		c.stable = 0
		c.prevLen, c.prevWorst = l, w
	}
	if c.train {
		for len(c.snaps) <= rIdx {
			c.snaps = append(c.snaps, nil)
			c.certs = append(c.certs, 0)
			c.stables = append(c.stables, 0)
		}
		c.snaps[rIdx] = topk.AppendIDs(c.snaps[rIdx][:0])
		c.certs[rIdx] = certified
		c.stables[rIdx] = c.stable
		c.snapN = rIdx + 1
		return false
	}
	// Gate on the query's own harvest, not on a full top-k: with fewer than
	// target·k of k results, recall against the shadow answer cannot reach
	// the target no matter what the population estimate says — but waiting
	// for the k-th member specifically would forfeit most early stops, since
	// the last member tends to arrive in the same round certification does.
	if c.tu.RecallTarget > 0 && float64(topk.Len()) >= c.tu.RecallTarget*float64(topk.K()) {
		est, ok := c.t.model.EstRecall(certified, topk.K(), c.stable, c.t.cfg.MinTrain)
		if ok && est-c.t.cfg.Margin-c.t.model.GuardMargin() >= c.tu.RecallTarget {
			c.stopped, c.recallStop = true, true
			return true
		}
	}
	return false
}

// EndLadder closes the query: roundsRun is how many rounds actually ran
// (Stats.Radii), ladderLen the full schedule length. On training queries it
// captures the final top-k membership the per-round snapshots are scored
// against in Finish.
func (c *Ctl) EndLadder(topk *ann.TopK, roundsRun, ladderLen int) {
	c.ended = true
	c.roundsRun, c.ladderLen = roundsRun, ladderLen
	if c.train && !c.stopped {
		c.final = topk.AppendIDs(c.final[:0])
	}
}
