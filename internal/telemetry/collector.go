package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Config sets up a Collector.
type Config struct {
	// SampleRate is the fraction of queries that get a span trace, in
	// (0, 1]. Zero disables tracing: StartTrace always returns nil and the
	// only telemetry cost left is the per-query total-histogram update.
	SampleRate float64
	// SlowThreshold is the end-to-end latency at or above which a query is
	// counted slow and its trace (when sampled) is dumped to SlowWriter.
	// Zero disables the slow-query log.
	SlowThreshold time.Duration
	// SlowWriter receives slow-query dumps. Writes are serialized by the
	// collector. Nil disables dumping (slow queries are still counted).
	SlowWriter io.Writer
}

// Collector aggregates one engine's query telemetry: a histogram per stage,
// the trace sampler and its buffer pool, and the slow-query log. All methods
// are safe for concurrent use; the recording paths are lock-free and, in
// steady state, allocation-free (traces come from a pool).
type Collector struct {
	stages [NumStages]Histogram

	// every is the deterministic sampling period: query sequence numbers
	// divisible by it get a trace. 0 means tracing is off.
	every uint64
	seq   atomic.Uint64
	pool  sync.Pool

	slowThresh time.Duration
	slowMu     sync.Mutex // serializes dumps onto slowW
	slowW      io.Writer  // set at construction, never mutated

	sampled atomic.Uint64
	slow    atomic.Uint64
	dropped atomic.Uint64
}

// New builds a Collector. SampleRate is clamped to [0, 1]; a nonzero rate
// samples every round(1/rate)-th query, so rate 1 traces everything and
// rate 0.001 traces one query in a thousand.
func New(cfg Config) *Collector {
	c := &Collector{slowThresh: cfg.SlowThreshold, slowW: cfg.SlowWriter}
	if r := cfg.SampleRate; r > 0 {
		if r > 1 {
			r = 1
		}
		c.every = uint64(math.Round(1 / r))
		if c.every == 0 {
			c.every = 1
		}
	}
	c.pool.New = func() any { return new(Trace) }
	return c
}

// StartTrace returns a pooled trace if this query is sampled, nil
// otherwise. The caller must hand the result (nil or not) to FinishQuery,
// which recycles it.
func (c *Collector) StartTrace() *Trace {
	if c.every == 0 {
		return nil
	}
	if c.seq.Add(1)%c.every != 0 {
		return nil
	}
	tr := c.pool.Get().(*Trace)
	tr.begin(time.Now())
	return tr
}

// ObserveStage records one duration directly into a stage histogram, for
// stages measured on every occurrence rather than per sampled trace
// (physical I/O ops, coalescer waits, shard answers).
//
//lsh:hotpath
func (c *Collector) ObserveStage(st Stage, d time.Duration) {
	if c == nil {
		return
	}
	c.stages[st].Observe(d)
}

// StageHist exposes one stage's histogram so a subsystem (the I/O engine)
// can observe into it directly without holding the whole collector.
func (c *Collector) StageHist(st Stage) *Histogram {
	if c == nil {
		return nil
	}
	return &c.stages[st]
}

// SlowThreshold returns the configured slow-query threshold (0 = off).
func (c *Collector) SlowThreshold() time.Duration {
	return c.slowThresh
}

// FinishQuery completes one query's telemetry: the end-to-end latency goes
// into the total histogram, a sampled trace's spans fold into their stage
// histograms, a slow query is counted and (if traced) dumped, and the trace
// is returned to the pool. tr may be nil (unsampled query).
func (c *Collector) FinishQuery(total time.Duration, tr *Trace) {
	c.stages[StageTotal].Observe(total)
	isSlow := c.slowThresh > 0 && total >= c.slowThresh
	if isSlow {
		c.slow.Add(1)
	}
	if tr == nil {
		return
	}
	c.sampled.Add(1)
	for i := range tr.spans[:tr.n] {
		sp := &tr.spans[i]
		c.stages[sp.Stage].Observe(sp.Dur)
	}
	if tr.dropped > 0 {
		c.dropped.Add(uint64(tr.dropped))
	}
	if isSlow {
		c.dumpSlow(total, tr)
	}
	c.pool.Put(tr)
}

// dumpSlow renders one slow query's span timeline. This is a cold path —
// it runs only for sampled queries over the threshold — so it buffers
// freely and serializes the final write.
func (c *Collector) dumpSlow(total time.Duration, tr *Trace) {
	if c.slowW == nil {
		return
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "slow query: total=%v spans=%d", total, tr.n)
	if tr.dropped > 0 {
		fmt.Fprintf(&b, " dropped=%d", tr.dropped)
	}
	b.WriteByte('\n')
	for i := 0; i < tr.n; i++ {
		sp := &tr.spans[i]
		fmt.Fprintf(&b, "  +%-12v %-13s", sp.Start, sp.Stage)
		if sp.Round >= 0 {
			fmt.Fprintf(&b, " r%-3d", sp.Round)
		} else {
			b.WriteString("     ")
		}
		fmt.Fprintf(&b, " dur=%v", sp.Dur)
		if sp.N != 0 || sp.M != 0 {
			fmt.Fprintf(&b, " n=%d m=%d", sp.N, sp.M)
		}
		b.WriteByte('\n')
	}
	c.slowMu.Lock()
	c.slowW.Write(b.Bytes())
	c.slowMu.Unlock()
}

// Snapshot copies the collector's state: every stage histogram plus the
// sampling counters, in the exactly-mergeable Snapshot form.
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	s := new(Snapshot)
	for i := range c.stages {
		c.stages[i].Snapshot(&s.Stages[i])
	}
	s.Sampled = c.sampled.Load()
	s.Slow = c.slow.Load()
	s.DroppedSpans = c.dropped.Load()
	return s
}

// Snapshot is a point-in-time copy of a Collector: one histogram snapshot
// per stage plus the sampling counters. Like Stats it merges exactly, which
// is how ShardedIndex folds per-shard telemetry into one report.
type Snapshot struct {
	Stages       [NumStages]HistSnapshot
	Sampled      uint64
	Slow         uint64
	DroppedSpans uint64
}

// Merge folds o into s stage-wise.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	for i := range s.Stages {
		s.Stages[i].Merge(&o.Stages[i])
	}
	s.Sampled += o.Sampled
	s.Slow += o.Slow
	s.DroppedSpans += o.DroppedSpans
}

// FoldShard folds one shard's snapshot into an engine-wide one. Stage
// histograms merge as in Merge except StageTotal, which is skipped: a
// sharded query's end-to-end latency is measured once at the sharded layer
// and per-shard answer latency is already observed into StageShardWait by
// the router hook, so folding shard totals as well would double-count.
func (s *Snapshot) FoldShard(o *Snapshot) {
	if o == nil {
		return
	}
	for i := range s.Stages {
		if Stage(i) == StageTotal {
			continue
		}
		s.Stages[i].Merge(&o.Stages[i])
	}
	s.Sampled += o.Sampled
	s.Slow += o.Slow
	s.DroppedSpans += o.DroppedSpans
}
