package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram buckets nanosecond values on a log scale with linear
// sub-buckets: each power-of-two octave is split into subCount equal-width
// sub-buckets, so any observation lands in a bucket whose width is at most
// 1/subCount of its value. Quantiles read back from bucket bounds therefore
// carry at most 1/32 ≈ 3.1% relative error — tight enough to tell a 200µs
// p99 from a 250µs one, and five orders of magnitude cheaper than storing
// raw samples. The layout is the HDR-histogram idea specialised to uint64
// nanoseconds with a fixed array, so observation is a single atomic add and
// merging is element-wise addition.
const (
	subBits  = 5
	subCount = 1 << subBits

	// NumBuckets covers the full int64 nanosecond range: values below
	// subCount get exact unit buckets, and every octave above contributes
	// subCount sub-buckets.
	NumBuckets = (64 - subBits) * subCount
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
//
//lsh:hotpath
func bucketIndex(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := int(uint64(v)>>(uint(exp)-subBits)) & (subCount - 1)
	return (exp-subBits+1)*subCount + sub
}

// BucketUpper returns the inclusive upper bound, in nanoseconds, of bucket
// idx — the value a quantile resolves to.
func BucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	exp := idx/subCount + subBits - 1
	sub := int64(idx % subCount)
	width := int64(1) << (uint(exp) - subBits)
	return int64(1)<<uint(exp) + (sub+1)*width - 1
}

// Histogram is a lock-free latency histogram. The zero value is ready to
// use. Observe is safe from any number of goroutines concurrently with
// Snapshot; writers never block and never allocate.
type Histogram struct {
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	counts [NumBuckets]atomic.Uint64
}

// Observe records one latency sample.
//
//lsh:hotpath
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of samples observed so far.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot copies the histogram's current state into s. Concurrent with
// writers the copy is not a single atomic cut — each bucket is read once —
// but every sample fully recorded before the call is included, which is the
// guarantee merging and serving need.
func (h *Histogram) Snapshot(s *HistSnapshot) {
	*s = HistSnapshot{}
	if h == nil {
		return
	}
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			s.Counts[i] = c
			s.Count += c
		}
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
}

// HistSnapshot is a point-in-time copy of a Histogram: plain integers that
// merge exactly, the latency analogue of the Stats counter struct. Count is
// recomputed from the buckets at snapshot time so it is always internally
// consistent even when taken concurrently with writers.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    int64
	Max    int64
}

// Merge folds o into s bucket-wise. Merging preserves total count exactly
// and quantiles of the merged snapshot stay within the bucketing scheme's
// 1/32 relative error of the quantiles of the combined sample population,
// because both sides bucket identically.
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile returns the latency at quantile q in [0, 1]: the upper bound of
// the bucket holding the ceil(q·Count)-th smallest sample, clamped to the
// observed maximum. Zero samples yield zero.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			v := BucketUpper(i)
			if v > s.Max {
				v = s.Max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(s.Max)
}

// Mean returns the arithmetic mean of the observed samples (exact, from the
// running sum, not the buckets).
func (s *HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / int64(s.Count))
}
