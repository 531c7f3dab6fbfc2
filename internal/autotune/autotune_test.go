package autotune

import (
	"testing"
	"time"

	"e2lshos/internal/ann"
)

// topkK builds a k-capacity accumulator holding ids (in push order, with
// increasing distances).
func topkK(k int, ids ...uint32) *ann.TopK {
	tk := ann.NewTopK(k)
	for i, id := range ids {
		tk.Push(id, float64(i))
	}
	return tk
}

// trainLadders runs n synthetic full-ladder queries through the tuner whose
// per-round state follows rounds/certs: rounds[r] lists the final-top-k hits
// present after round r (the last round's set is the final membership) and
// certs[r] the certified count reported to AfterRound.
func trainLadders(t *testing.T, tn *Tuner, n, k int, rounds [][]uint32, certs []int) {
	t.Helper()
	for q := 0; q < n; q++ {
		c := tn.Start(Tuning{}, Knobs{}, time.Now())
		if !c.Training() {
			t.Fatal("untuned query must train")
		}
		for r := range rounds {
			if _, proceed := c.BeforeRound(r, 100); !proceed {
				t.Fatal("untuned round refused")
			}
			c.AfterRound(r, topkK(k, rounds[r]...), certs[r])
		}
		c.EndLadder(topkK(k, rounds[len(rounds)-1]...), len(rounds), len(rounds))
		tn.Finish(c)
	}
}

// TestModelFracMonotone: the folded self-recall estimate is nondecreasing
// across observed certification bins, because per-query membership and the
// certified count both are.
func TestModelFracMonotone(t *testing.T) {
	tn := New(Config{MinTrain: 4})
	rounds := [][]uint32{{1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}}
	certs := []int{0, 1, 2, 3}
	trainLadders(t, tn, 8, 4, rounds, certs)
	sp := tn.Snapshot()
	if sp.Ladders != 8 {
		t.Fatalf("Ladders = %d, want 8", sp.Ladders)
	}
	// Every synthetic round changes the top-k, so all folds land in
	// stability bucket 0.
	total, prev := 0, -1.0
	for b := range sp.Obs {
		for s, obs := range sp.Obs[b] {
			total += obs
			if obs == 0 {
				continue
			}
			if s != 0 {
				t.Errorf("observation in stability bucket %d of bin %d, want all in 0", s, b)
			}
			if sp.Frac[b][s] < prev {
				t.Errorf("Frac[%d][%d] = %g below earlier observed bin's %g", b, s, sp.Frac[b][s], prev)
			}
			prev = sp.Frac[b][s]
		}
	}
	if total != 8*len(rounds) {
		t.Errorf("total observations = %d, want %d", total, 8*len(rounds))
	}
	// certified 0 of 4 → first bin, where membership was 1 of 4.
	if got := sp.Frac[0][0]; got < 0.24 || got > 0.26 {
		t.Errorf("Frac[0][0] = %g, want 0.25", got)
	}
	// certified 3 of 4 → a bin where membership had converged.
	if got := sp.Frac[3*certBins/4][0]; got != 1 {
		t.Errorf("Frac at cert 3/4 = %g, want 1", got)
	}
}

// TestRecallTargetEarlyStop: with a warm model, a tuned non-training query
// stops as soon as the estimate for its certification bin (minus margins)
// crosses its target, and the outcome records the skipped rounds.
func TestRecallTargetEarlyStop(t *testing.T) {
	// Explore large so the tuned query below is not an exploration query.
	tn := New(Config{MinTrain: 4, Explore: 1 << 20, Margin: 0.01})
	rounds := [][]uint32{{1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}}
	certs := []int{2, 3, 3, 3}
	trainLadders(t, tn, 8, 4, rounds, certs)

	c := tn.Start(Tuning{RecallTarget: 0.9}, Knobs{}, time.Now())
	if c.Training() {
		t.Fatal("warm-model tuned query must not train")
	}
	stopped := -1
	for r := 0; r < len(rounds); r++ {
		if _, proceed := c.BeforeRound(r, 100); !proceed {
			t.Fatal("recall-only query refused a round")
		}
		if c.AfterRound(r, topkK(4, 1, 2, 3, 4), certs[r]) {
			stopped = r
			break
		}
	}
	// cert 2/4 trained to 0.75 < 0.9; cert 3/4 trained to 1 ≥ 0.9 + 0.01:
	// stop after round 1.
	if stopped != 1 {
		t.Fatalf("early stop after round %d, want 1", stopped)
	}
	c.EndLadder(topkK(4, 1, 2, 3, 4), stopped+1, len(rounds))
	o := tn.Finish(c)
	if !o.RecallStopped || o.RoundsSkipped != 2 {
		t.Errorf("outcome = %+v, want RecallStopped with 2 rounds skipped", o)
	}
}

// TestRecallStopNeedsHarvest: however confident the population estimate, a
// query holding fewer than target·k results cannot stop — its own recall
// against the shadow answer is already below target.
func TestRecallStopNeedsHarvest(t *testing.T) {
	tn := New(Config{MinTrain: 1, Explore: 1 << 20, Margin: 0.01})
	trainLadders(t, tn, 4, 4, [][]uint32{{1, 2, 3, 4}}, []int{3})

	c := tn.Start(Tuning{RecallTarget: 0.9}, Knobs{}, time.Now())
	c.BeforeRound(0, 100)
	// Same certification bin the model trained to 1.0, but only 3 of 4 held.
	if c.AfterRound(0, topkK(4, 1, 2, 3), 3) {
		t.Fatal("stopped with 3 of 4 results under a 0.9 target")
	}
	c.EndLadder(topkK(4, 1, 2, 3), 1, 1)
	tn.Finish(c)
}

// TestColdModelNeverStops: below MinTrain every query trains and recall
// stops are disabled.
func TestColdModelNeverStops(t *testing.T) {
	tn := New(Config{MinTrain: 16})
	c := tn.Start(Tuning{RecallTarget: 0.5}, Knobs{}, time.Now())
	if !c.Training() {
		t.Fatal("cold-model tuned query must train")
	}
	if c.AfterRound(0, topkK(2, 1, 2), 1) {
		t.Fatal("training query stopped early")
	}
	c.EndLadder(topkK(2, 1, 2), 1, 1)
	tn.Finish(c)
}

// TestLatencyBudgetDegradeThenStop: a predicted round over the remaining
// budget escalates the degradation ladder under DegradeKnobs, and stops the
// ladder under DegradeStop. Round 0 always proceeds.
func TestLatencyBudgetDegradeThenStop(t *testing.T) {
	tn := New(Config{})
	// Teach round 1 a 100ms cost.
	c := tn.Start(Tuning{}, Knobs{}, time.Now())
	c.lastT = time.Now().Add(-100 * time.Millisecond)
	tn.model.ObserveRound(1, 100*time.Millisecond)
	c.EndLadder(ann.NewTopK(1), 0, 0)
	tn.Finish(c)

	base := Knobs{MultiProbe: 4, BudgetS: 400, Readahead: true}

	// 85ms remaining < 100ms predicted and < 90ms at level 1: fits only at
	// level ≥ 2 (0.75×).
	c = tn.Start(Tuning{LatencyBudget: 85 * time.Millisecond}, base, time.Now())
	if _, proceed := c.BeforeRound(0, 400); !proceed {
		t.Fatal("round 0 must always proceed")
	}
	kn, proceed := c.BeforeRound(1, 400)
	if !proceed {
		t.Fatal("degradable round refused")
	}
	if kn.Readahead || kn.MultiProbe != 2 {
		t.Errorf("level-2 knobs = %+v, want readahead off and multi-probe halved", kn)
	}
	c.EndLadder(ann.NewTopK(1), 2, 4)
	if o := tn.Finish(c); o.DegradedKnobs != 2 {
		t.Errorf("DegradedKnobs = %d, want 2", o.DegradedKnobs)
	}

	// 10ms remaining < 100ms × 0.4 (fully degraded): the ladder stops —
	// round 0 harvested a neighbor, so stopping still serves an answer.
	c = tn.Start(Tuning{LatencyBudget: 10 * time.Millisecond}, base, time.Now())
	if _, proceed := c.BeforeRound(0, 400); !proceed {
		t.Fatal("round 0 must always proceed")
	}
	c.AfterRound(0, topkK(1, 7), 0)
	if _, proceed := c.BeforeRound(1, 400); proceed {
		t.Fatal("unaffordable round proceeded")
	}
	c.EndLadder(topkK(1, 7), 1, 4)
	if o := tn.Finish(c); !o.BudgetExhausted || o.RoundsSkipped != 3 {
		t.Errorf("outcome = %+v, want BudgetExhausted with 3 rounds skipped", o)
	}

	// DegradeStop never touches knobs: it stops instead.
	c = tn.Start(Tuning{LatencyBudget: 85 * time.Millisecond, Degrade: DegradeStop}, base, time.Now())
	if _, proceed := c.BeforeRound(0, 400); !proceed {
		t.Fatal("round 0 must always proceed")
	}
	c.AfterRound(0, topkK(1, 7), 0)
	if _, proceed := c.BeforeRound(1, 400); proceed {
		t.Fatal("DegradeStop ran an unaffordable round")
	}
	c.EndLadder(topkK(1, 7), 1, 4)
	if o := tn.Finish(c); !o.BudgetExhausted || o.DegradedKnobs != 0 {
		t.Errorf("outcome = %+v, want BudgetExhausted without degradation", o)
	}
}

// TestBudgetNeverStopsEmptyHanded: a query whose top-k is still empty is
// never budget-stopped — it runs the next round fully degraded instead, and
// only once it holds a result does the budget stop land.
func TestBudgetNeverStopsEmptyHanded(t *testing.T) {
	tn := New(Config{})
	tn.model.ObserveRound(1, 100*time.Millisecond)
	tn.model.ObserveRound(2, 100*time.Millisecond)

	base := Knobs{MultiProbe: 4, BudgetS: 400, Readahead: true}
	c := tn.Start(Tuning{LatencyBudget: 10 * time.Millisecond}, base, time.Now())
	if _, proceed := c.BeforeRound(0, 400); !proceed {
		t.Fatal("round 0 must always proceed")
	}
	// Round 0 found nothing: an unaffordable round 1 must still run, fully
	// degraded.
	c.AfterRound(0, ann.NewTopK(1), 0)
	kn, proceed := c.BeforeRound(1, 400)
	if !proceed {
		t.Fatal("budget stop with an empty top-k")
	}
	if kn.Readahead || kn.MultiProbe != 0 {
		t.Errorf("empty-handed round ran undegraded: %+v", kn)
	}
	// Round 1 harvested a neighbor: now the stop lands.
	c.AfterRound(1, topkK(1, 7), 1)
	if _, proceed := c.BeforeRound(2, 400); proceed {
		t.Fatal("unaffordable round proceeded with a result in hand")
	}
	c.EndLadder(topkK(1, 7), 2, 4)
	if o := tn.Finish(c); !o.BudgetExhausted || o.DegradedKnobs != maxDegradeLevel {
		t.Errorf("outcome = %+v, want BudgetExhausted after full degradation", o)
	}
}

// TestApplyLevelLadder: each degradation level strictly reduces work knobs
// and never raises one.
func TestApplyLevelLadder(t *testing.T) {
	base := Knobs{MultiProbe: 4, BudgetS: 400, Readahead: true}
	prev := base
	for level := 1; level <= maxDegradeLevel; level++ {
		kn := applyLevel(base, level)
		if kn.MultiProbe > prev.MultiProbe || kn.BudgetS > prev.BudgetS {
			t.Errorf("level %d raised a knob: %+v after %+v", level, kn, prev)
		}
		if kn.Readahead {
			t.Errorf("level %d kept readahead on", level)
		}
		prev = kn
	}
	if prev.MultiProbe != 0 || prev.BudgetS != base.BudgetS/4 {
		t.Errorf("fully degraded knobs = %+v, want multi-probe off and the budget quartered", prev)
	}
	if kn := applyLevel(Knobs{BudgetS: 2}, maxDegradeLevel); kn.BudgetS < 1 {
		t.Errorf("degradation drove knobs below 1: %+v", kn)
	}
}

// TestPooledCtlStaleSnapshots: a pooled controller whose previous query ran
// more rounds must not leak those rounds' membership into a later, shorter
// query's training fold.
func TestPooledCtlStaleSnapshots(t *testing.T) {
	tn := New(Config{MinTrain: 1})
	// Query 1: three rounds, all of final present throughout, certified 1
	// of 2 each round.
	trainLadders(t, tn, 1, 2, [][]uint32{{9, 8}, {9, 8}, {9, 8}}, []int{1, 1, 1})
	// Query 2 (reuses the pooled Ctl): one round. If the stale round-1/2
	// snapshots leaked, their {9,8} membership would be scored against the
	// new final {1,2} and fold 0s into the cert-1/2 bin.
	trainLadders(t, tn, 1, 2, [][]uint32{{1, 2}}, []int{1})
	sp := tn.Snapshot()
	b := certBin(1, 2)
	for s := range sp.Obs[b] {
		if sp.Obs[b][s] > 0 && sp.Frac[b][s] != 1 {
			t.Errorf("Frac[%d][%d] = %g, want 1 (stale pooled snapshots leaked)", b, s, sp.Frac[b][s])
		}
	}
}

// TestGuardrailMargin: below-target served recall widens the margin, on-
// target recall decays it, and the widening is capped.
func TestGuardrailMargin(t *testing.T) {
	tn := New(Config{})
	tn.ObserveServedRecall(0.9, 0.7)
	sp := tn.Snapshot()
	if want := 0.1; sp.GuardMargin < want-1e-9 || sp.GuardMargin > want+1e-9 {
		t.Fatalf("GuardMargin = %g after 0.2 shortfall, want %g", sp.GuardMargin, want)
	}
	for i := 0; i < 10; i++ {
		tn.ObserveServedRecall(0.9, 0.0)
	}
	if sp = tn.Snapshot(); sp.GuardMargin > 0.2 {
		t.Fatalf("GuardMargin = %g, want capped at 0.2", sp.GuardMargin)
	}
	tn.ObserveServedRecall(0.9, 0.95)
	if got := tn.Snapshot().GuardMargin; got >= sp.GuardMargin {
		t.Errorf("on-target observation did not decay the margin: %g -> %g", sp.GuardMargin, got)
	}
}

// TestRoundEWMA: the first observation seeds the prediction directly;
// later ones move it by roundAlpha.
func TestRoundEWMA(t *testing.T) {
	var m Model
	m.ObserveRound(0, 100*time.Millisecond)
	if got := m.PredictRound(0); got != 100*time.Millisecond {
		t.Fatalf("first observation: PredictRound = %v, want 100ms", got)
	}
	m.ObserveRound(0, 200*time.Millisecond)
	if got := m.PredictRound(0); got != 125*time.Millisecond {
		t.Fatalf("EWMA after 200ms observation = %v, want 125ms", got)
	}
	if got := m.PredictRound(5); got != 0 {
		t.Errorf("unobserved round predicted %v, want 0", got)
	}
}
