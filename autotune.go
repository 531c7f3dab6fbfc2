package e2lshos

import (
	"sync/atomic"

	"e2lshos/internal/autotune"
)

// SearchTuning is one query's SLO contract, threaded through WithTuning; the
// zero value asks for nothing. It is the controller's own type, and has
// effect only on engines with EnableAutotune on.
type SearchTuning = autotune.Tuning

// DegradePolicy selects how a query that runs out of latency budget behaves:
// DegradeKnobs (the default) degrades readahead, multi-probe and the candidate
// budget before giving up rounds, DegradeStop stops the ladder instead.
type DegradePolicy = autotune.DegradePolicy

const (
	DegradeKnobs = autotune.DegradeKnobs
	DegradeStop  = autotune.DegradeStop
)

// ParseDegradePolicy maps the wire/flag spellings ("", "knobs", "stop") to a
// policy.
func ParseDegradePolicy(s string) (DegradePolicy, error) { return autotune.ParseDegradePolicy(s) }

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
func (t *tune) EnableAutotune() { t.tn.Store(autotune.New(autotune.Config{})) }

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
