package e2lshos

import (
	"fmt"
	"sync/atomic"
	"time"

	"e2lshos/internal/autotune"
)

// DegradePolicy selects how a query that runs out of latency budget behaves;
// see SearchTuning.
type DegradePolicy uint8

const (
	// DegradeKnobs (the default) degrades execution knobs mid-query —
	// readahead off, multi-probe halved then off, candidate budget
	// quartered — and only stops the radius ladder once every knob is
	// exhausted: graceful degradation instead of shedding.
	DegradeKnobs DegradePolicy = iota
	// DegradeStop skips knob degradation: rounds run at full quality and the
	// ladder stops as soon as the budget cannot cover the next round.
	DegradeStop
)

// ParseDegradePolicy maps the wire/flag spellings ("", "knobs", "stop") to a
// policy.
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	switch s {
	case "", "knobs":
		return DegradeKnobs, nil
	case "stop":
		return DegradeStop, nil
	}
	return 0, fmt.Errorf("e2lshos: unknown degrade policy %q (want \"knobs\" or \"stop\")", s)
}

// String returns the canonical spelling.
func (p DegradePolicy) String() string {
	if p == DegradeStop {
		return "stop"
	}
	return "knobs"
}

// SearchTuning is one query's SLO contract, threaded through WithTuning (or
// the individual WithRecallTarget / WithLatencyBudget / WithDegradePolicy
// options). The zero value asks for nothing: the ladder runs exactly as
// without autotuning.
type SearchTuning struct {
	// RecallTarget in (0,1) stops the radius ladder early once the engine's
	// online self-recall model estimates the target is met (minus safety
	// margins). 0 disables. Requires EnableAutotune.
	RecallTarget float64
	// LatencyBudget bounds the query's wall time; as the budget runs out the
	// controller degrades execution knobs mid-query (or stops, per Degrade)
	// instead of shedding the query. 0 disables. Requires EnableAutotune.
	LatencyBudget time.Duration
	// Degrade selects the out-of-budget behavior.
	Degrade DegradePolicy
}

// Active reports whether the tuning asks for any control at all.
func (t SearchTuning) Active() bool { return t.RecallTarget > 0 || t.LatencyBudget > 0 }

// internal converts to the controller package's representation.
func (t SearchTuning) internal() autotune.Tuning {
	tu := autotune.Tuning{RecallTarget: t.RecallTarget, LatencyBudget: t.LatencyBudget}
	if t.Degrade == DegradeStop {
		tu.Degrade = autotune.DegradeStop
	}
	return tu
}

// AutotuneOption tunes EnableAutotune.
type AutotuneOption func(*autotune.Config)

// WithMinTrain sets how many full-ladder observations the self-recall model
// needs before recall-target early stops are allowed (default 16).
func WithMinTrain(n int) AutotuneOption { return func(c *autotune.Config) { c.MinTrain = n } }

// WithExploreEvery keeps 1-in-n recall-targeted queries on the full ladder so
// the model keeps learning under sustained tuned traffic (default 32).
func WithExploreEvery(n int) AutotuneOption { return func(c *autotune.Config) { c.Explore = n } }

// WithRecallMargin sets the base safety margin subtracted from the estimated
// recall before comparing against the target (default 0.02).
func WithRecallMargin(m float64) AutotuneOption { return func(c *autotune.Config) { c.Margin = m } }

// tune is the autotuning anchor the E2LSH engines embed, mirroring telem: an
// atomically-swapped tuner, so autotuning can be enabled on a live engine and
// the disabled query path costs exactly one atomic load.
type tune struct {
	tn atomic.Pointer[autotune.Tuner]
}

// tuner returns the active tuner (nil when autotuning is disabled).
func (t *tune) tuner() *autotune.Tuner { return t.tn.Load() }

// EnableAutotune turns on the per-query recall/latency controller for this
// engine: queries carrying a SearchTuning are steered against their SLOs, and
// every query (tuned or not) feeds the engine's online recall-vs-radius and
// round-latency model. Safe to call on a live engine; calling again replaces
// the tuner and forgets the model learned so far.
func (t *tune) EnableAutotune(opts ...AutotuneOption) error {
	var cfg autotune.Config
	for _, o := range opts {
		o(&cfg)
	}
	switch {
	case cfg.MinTrain < 0:
		return fmt.Errorf("e2lshos: negative autotune min-train %d", cfg.MinTrain)
	case cfg.Explore < 0:
		return fmt.Errorf("e2lshos: negative autotune explore period %d", cfg.Explore)
	case cfg.Margin < 0 || cfg.Margin >= 1:
		return fmt.Errorf("e2lshos: autotune recall margin must be in [0, 1), got %g", cfg.Margin)
	}
	t.tn.Store(autotune.New(cfg))
	return nil
}

// observeServedRecall feeds one shadow-scored served recall into the tuner's
// guardrail margin (no-op while autotuning is disabled). ShardedIndex shadows
// this to fan the observation out to its shards.
func (t *tune) observeServedRecall(target, recall float64) {
	if tn := t.tn.Load(); tn != nil {
		tn.ObserveServedRecall(target, recall)
	}
}

// autotuneSnapshot exposes the tuner's model state (nil when autotuning is
// disabled).
func (t *tune) autotuneSnapshot() *autotune.ModelSnapshot {
	tn := t.tn.Load()
	if tn == nil {
		return nil
	}
	sp := tn.Snapshot()
	return &sp
}

// autotuned is the view of an engine the serving layer uses to reach the
// controller without knowing the engine type.
type autotuned interface {
	tuner() *autotune.Tuner
	observeServedRecall(target, recall float64)
	autotuneSnapshot() *autotune.ModelSnapshot
}

// baseKnobs resolves the query's undegraded execution knobs from its
// settings.
func baseKnobs(set searchSettings) autotune.Knobs {
	return autotune.Knobs{
		MultiProbe: set.multiProbe,
		BudgetS:    set.budget,
		Readahead:  true,
	}
}

// applyOutcome folds what the controller did to one query into its Stats.
func applyOutcome(st *Stats, o autotune.Outcome) {
	st.RoundsSkipped += o.RoundsSkipped
	if o.BudgetExhausted {
		st.BudgetExhausted++
	}
	st.DegradedKnobs += o.DegradedKnobs
}
