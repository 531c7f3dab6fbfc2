package e2lshos

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"e2lshos/internal/telemetry"
)

// TelemetryOption tunes EnableTelemetry.
type TelemetryOption func(*telemetrySettings)

type telemetrySettings struct {
	sampleRate float64
	slowThresh time.Duration
	slowW      io.Writer
}

// WithTracing samples one query in round(1/sampleRate) for a full per-stage
// span trace (projection, per-round I/O, verify, vectored-wave waits,
// coalescer wait). sampleRate is a fraction in [0, 1]: 0 disables tracing
// (the default — only histograms are recorded), 1 traces every query.
// Unsampled queries pay one nil check per trace hook and allocate nothing;
// sampled queries record into pooled fixed-size buffers, so steady-state
// tracing allocates nothing either.
func WithTracing(sampleRate float64) TelemetryOption {
	return func(s *telemetrySettings) { s.sampleRate = sampleRate }
}

// WithSlowQueryLog dumps the full span trace of every sampled query whose
// end-to-end latency reaches threshold to stderr. Queries over the threshold are counted
// even when unsampled or when threshold filtering is the only telemetry on.
func WithSlowQueryLog(threshold time.Duration) TelemetryOption {
	return func(s *telemetrySettings) { s.slowThresh = threshold }
}

// telem is the telemetry anchor every engine embeds: an atomically-swapped
// collector, so telemetry can be enabled on a live engine and the disabled
// query path costs exactly one atomic load.
type telem struct {
	col atomic.Pointer[telemetry.Collector]
}

// collector returns the active collector (nil when telemetry is disabled).
func (t *telem) collector() *telemetry.Collector { return t.col.Load() }

// EnableTelemetry turns on query telemetry for this engine: end-to-end and
// per-stage latency histograms always, span tracing at the WithTracing
// sample rate, and the WithSlowQueryLog slow-query dump. Safe to call on a
// live engine; calling again replaces the collector (and forgets the
// histograms accumulated so far).
func (t *telem) EnableTelemetry(opts ...TelemetryOption) error {
	set := telemetrySettings{slowW: os.Stderr}
	for _, o := range opts {
		o(&set)
	}
	if set.sampleRate < 0 || set.sampleRate > 1 {
		return fmt.Errorf("e2lshos: trace sample rate must be in [0, 1], got %g", set.sampleRate)
	}
	if set.slowThresh < 0 {
		return fmt.Errorf("e2lshos: negative slow-query threshold %v", set.slowThresh)
	}
	t.col.Store(telemetry.New(telemetry.Config{
		SampleRate:    set.sampleRate,
		SlowThreshold: set.slowThresh,
		SlowWriter:    set.slowW,
	}))
	return nil
}

// telemetrySnapshot returns the engine's current telemetry state (nil when
// telemetry is disabled). ShardedIndex shadows this to fold its shards in.
func (t *telem) telemetrySnapshot() *telemetry.Snapshot {
	return t.col.Load().Snapshot()
}

// TelemetryReport summarizes the engine's latency histograms: one row per
// stage with samples, nil when telemetry is disabled. Stage "total" is
// end-to-end query latency; the per-stage rows cover only the sampled
// traces (except io_op, coalesce_wait and shard_wait, which are observed on
// every occurrence).
func (t *telem) TelemetryReport() []LatencySummary {
	return summarizeTelemetry(t.telemetrySnapshot())
}

// LatencySummary is one stage's latency distribution, as served by
// TelemetryReport and /metrics.
type LatencySummary struct {
	// Stage is the stage name ("total", "project", "io", "verify", ...).
	Stage string
	// Count is the number of samples observed.
	Count uint64
	// Mean and the quantiles describe the observed distribution; quantiles
	// carry the histogram's ~3.1% relative error, Mean and Max are exact.
	Mean, P50, P90, P99, P999, Max time.Duration
}

// summarizeTelemetry renders a snapshot as per-stage summaries, skipping
// stages with no samples.
func summarizeTelemetry(sp *telemetry.Snapshot) []LatencySummary {
	if sp == nil {
		return nil
	}
	var out []LatencySummary
	for i := range sp.Stages {
		h := &sp.Stages[i]
		if h.Count == 0 {
			continue
		}
		out = append(out, LatencySummary{
			Stage: telemetry.Stage(i).String(),
			Count: h.Count,
			Mean:  h.Mean(),
			P50:   h.Quantile(0.5),
			P90:   h.Quantile(0.9),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
			Max:   time.Duration(h.Max),
		})
	}
	return out
}

// telemetered is the view of an engine the serving layer uses to scrape
// telemetry without knowing the engine type.
type telemetered interface {
	collector() *telemetry.Collector
	telemetrySnapshot() *telemetry.Snapshot
}
