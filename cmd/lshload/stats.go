package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample is one completed operation of a timed phase. Times are offsets from
// the phase start. In an open loop Due is the scheduled send time and latency
// runs from it, so a stall is charged to every request it delayed; in a
// closed loop Due equals Start.
type sample struct {
	Req   int // index into the phase's request stream
	Due   time.Duration
	Start time.Duration
	End   time.Duration
	Resp  response
}

func (s sample) latency() time.Duration  { return s.End - s.Due }
func (s sample) lateness() time.Duration { return s.Start - s.Due }

// quantile returns the q-quantile of xs by the nearest-rank rule (the value
// with at least q of the samples at or below it). xs must be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timedValue is a latency observed at a point of the phase.
type timedValue struct {
	At time.Duration
	V  float64
}

// segmentQuantile splits [0, span) into segs equal time segments, takes the
// q-quantile of each non-empty segment and returns the median of those. One
// scheduler stall lands in one segment and the median ignores it, which is
// what makes a tail percentile repeat on a shared box. It also returns the
// smallest segment's sample count, so the caller can print how many samples
// lie beyond the quantile.
func segmentQuantile(vs []timedValue, span time.Duration, segs int, q float64) (value float64, minCount int) {
	if segs < 1 {
		segs = 1
	}
	buckets := make([][]float64, segs)
	for _, v := range vs {
		i := int(int64(v.At) * int64(segs) / int64(span))
		if i < 0 {
			i = 0
		}
		if i >= segs {
			i = segs - 1
		}
		buckets[i] = append(buckets[i], v.V)
	}
	var qs []float64
	minCount = -1
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if minCount < 0 || len(b) < minCount {
			minCount = len(b)
		}
		qs = append(qs, quantile(sorted(b), q))
	}
	if minCount < 0 {
		minCount = 0
	}
	return median(qs), minCount
}

// bodySegments is how many time segments the median and p90 are taken over:
// a fifth of a 5 s phase at 250 req/s still leaves 25 samples beyond a p90.
const bodySegments = 5

// tailSegments is how many equal time segments a phase's p99 is the median
// over: five when each holds at least 1000 samples (ten beyond its p99),
// fewer on short runs, never less than one.
func tailSegments(samples int) int { return max(1, min(bodySegments, samples/1000)) }

// latencySummary is a phase's latency distribution as the benchmark reports
// it: each percentile the median over time segments of that percentile.
type latencySummary struct {
	P50, P90, P99 float64
	Samples       int
	TailSegs      int // segments behind P99
	TailMin       int // samples in the smallest of them
}

func summarizeLatency(lat []timedValue, span time.Duration) latencySummary {
	s := latencySummary{Samples: len(lat), TailSegs: tailSegments(len(lat))}
	s.P50, _ = segmentQuantile(lat, span, bodySegments, 0.50)
	s.P90, _ = segmentQuantile(lat, span, bodySegments, 0.90)
	s.P99, s.TailMin = segmentQuantile(lat, span, s.TailSegs, 0.99)
	return s
}

func (s latencySummary) String() string {
	return fmt.Sprintf("%d latencies; p50 and p90 are medians over %d time segments; p99 is the median of %d segment p99s, %d samples in the smallest (%.0f beyond its p99)",
		s.Samples, bodySegments, s.TailSegs, s.TailMin, float64(s.TailMin)*0.01)
}

// segmentRate is the throughput analogue: completions per second in each of
// segs equal segments of span, median over segments. A segment's rate runs
// from its first completion to its last, so it is not quantized to whole
// completions per segment.
func segmentRate(ends []time.Duration, span time.Duration, segs int) float64 {
	if segs < 1 {
		segs = 1
	}
	type seg struct {
		n           int
		first, last time.Duration
	}
	buckets := make([]seg, segs)
	for _, e := range ends {
		i := int(int64(e) * int64(segs) / int64(span))
		if i < 0 || i >= segs {
			continue
		}
		b := &buckets[i]
		if b.n == 0 || e < b.first {
			b.first = e
		}
		if e > b.last {
			b.last = e
		}
		b.n++
	}
	var rates []float64
	for _, b := range buckets {
		if b.n >= 2 && b.last > b.first {
			rates = append(rates, float64(b.n-1)/(b.last-b.first).Seconds())
		}
	}
	return median(rates)
}

// firstPass averages a per-query observation over the first time each of the
// distinct queries is seen, so the mean repeats exactly no matter how many
// further passes a phase completed. Feed it in stream order: floating-point
// sums depend on it.
type firstPass struct {
	seen  []bool
	count int
	sum   float64
}

func newFirstPass(distinct int) *firstPass { return &firstPass{seen: make([]bool, distinct)} }

// add records query q's observation unless q was already counted, reporting
// whether it was taken.
func (f *firstPass) add(q int, v float64) bool {
	if f.seen[q] {
		return false
	}
	f.seen[q] = true
	f.count++
	f.sum += v
	return true
}

func (f *firstPass) complete() bool { return f.count == len(f.seen) }

func (f *firstPass) mean() float64 {
	if f.count == 0 {
		return 0
	}
	return f.sum / float64(f.count)
}
