// Package ann holds the types shared by every approximate nearest neighbor
// method in the repository: search results, a bounded top-k accumulator, the
// evaluation metrics from the paper (overall ratio, recall), and a brute-force
// exact searcher used to produce ground truth.
package ann

import (
	"fmt"
	"math"
	"slices"

	"e2lshos/internal/vecmath"
)

// Neighbor is one returned neighbor: the database object ID and its Euclidean
// distance to the query.
type Neighbor struct {
	ID   uint32
	Dist float64
}

// Result is the outcome of one top-k query.
type Result struct {
	Neighbors []Neighbor // sorted by ascending distance
}

// IDs returns the neighbor IDs in rank order.
func (r Result) IDs() []uint32 {
	ids := make([]uint32, len(r.Neighbors))
	for i, nb := range r.Neighbors {
		ids[i] = nb.ID
	}
	return ids
}

// TopK accumulates the k nearest candidates seen so far using a bounded
// max-heap keyed by a monotone distance key: callers push either true
// Euclidean distances (extract with Result/AppendResult) or squared
// distances (extract with ResultSq/AppendResultSq, which take the square
// root on the way out). The squared form is what the pruned verification
// hot path uses: comparisons against Worst stay in squared space and sqrt
// is paid only for the final top-k. The zero value is not usable; construct
// with NewTopK or recycle a searcher-owned accumulator with Reset.
type TopK struct {
	k    int
	heap []Neighbor // max-heap on the key stored in Dist
}

// NewTopK returns an accumulator for the k nearest neighbors. k must be
// positive.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("ann: NewTopK requires k > 0")
	}
	return &TopK{k: k, heap: make([]Neighbor, 0, k)}
}

// Reset empties the accumulator for a new query of capacity k, reusing the
// heap backing array whenever it is large enough. k must be positive.
//
//lsh:hotpath
func (t *TopK) Reset(k int) {
	if k <= 0 {
		panic("ann: TopK.Reset requires k > 0")
	}
	t.k = k
	if cap(t.heap) < k {
		t.heap = make([]Neighbor, 0, k) //lsh:allocok one-time regrow when k exceeds prior capacity
	} else {
		t.heap = t.heap[:0]
	}
}

// Push offers a candidate. It returns true if the candidate entered the
// current top-k.
//
//lsh:hotpath
func (t *TopK) Push(id uint32, dist float64) bool {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, Neighbor{ID: id, Dist: dist})
		t.siftUp(len(t.heap) - 1)
		return true
	}
	if dist >= t.heap[0].Dist {
		return false
	}
	t.heap[0] = Neighbor{ID: id, Dist: dist}
	t.siftDown(0)
	return true
}

// Len returns the number of neighbors currently held (≤ k).
func (t *TopK) Len() int { return len(t.heap) }

// Full reports whether k neighbors have been accumulated.
func (t *TopK) Full() bool { return len(t.heap) == t.k }

// K returns the accumulator's capacity.
func (t *TopK) K() int { return t.k }

// Worst returns the largest distance currently in the top-k, or +Inf if the
// accumulator is not yet full. It is the pruning bound for candidates.
//
//lsh:hotpath
func (t *TopK) Worst() float64 {
	if len(t.heap) < t.k {
		return math.Inf(1)
	}
	return t.heap[0].Dist
}

// KthDist returns the current k-th smallest distance (same as Worst when
// full), or +Inf otherwise.
func (t *TopK) KthDist() float64 { return t.Worst() }

// CountWithin returns how many accumulated neighbors lie within distance d.
//
//lsh:hotpath
func (t *TopK) CountWithin(d float64) int {
	n := 0
	for _, nb := range t.heap {
		if nb.Dist <= d {
			n++
		}
	}
	return n
}

// Result extracts the accumulated neighbors sorted by ascending distance.
// The accumulator remains valid and unchanged.
func (t *TopK) Result() Result {
	return Result{Neighbors: t.AppendResult(make([]Neighbor, 0, len(t.heap)))}
}

// AppendResult appends the accumulated neighbors to dst sorted by ascending
// distance then ID and returns the extended slice. It allocates nothing when
// dst has capacity (a nil dst gets exact-capacity backing); the accumulator
// remains valid and unchanged.
//
//lsh:hotpath
func (t *TopK) AppendResult(dst []Neighbor) []Neighbor {
	if dst == nil {
		dst = make([]Neighbor, 0, len(t.heap)) //lsh:allocok nil dst asks for exact-capacity backing
	}
	start := len(dst)
	dst = append(dst, t.heap...)
	sortNeighbors(dst[start:])
	return dst
}

// ResultSq extracts the neighbors of a squared-distance-keyed accumulator,
// converting each key to a true distance.
func (t *TopK) ResultSq() Result {
	return Result{Neighbors: t.AppendResultSq(make([]Neighbor, 0, len(t.heap)))}
}

// AppendResultSq is AppendResult for accumulators keyed by squared
// distances: the one place the pruned verification path pays a square root.
// Sorting happens on the rounded true distances (then ID), matching what
// pushing true distances would have produced.
//
//lsh:hotpath
func (t *TopK) AppendResultSq(dst []Neighbor) []Neighbor {
	if dst == nil {
		dst = make([]Neighbor, 0, len(t.heap)) //lsh:allocok nil dst asks for exact-capacity backing
	}
	start := len(dst)
	for _, nb := range t.heap {
		dst = append(dst, Neighbor{ID: nb.ID, Dist: math.Sqrt(nb.Dist)})
	}
	sortNeighbors(dst[start:])
	return dst
}

// AppendIDs appends the IDs currently held (heap order, no sorting) to dst
// and returns the extended slice. It allocates only when dst lacks capacity.
// The autotune controller uses it to snapshot top-k membership per radius
// round; membership is all its self-recall model needs, so the sort and the
// sqrt of the Result extractors are skipped.
//
//lsh:hotpath
func (t *TopK) AppendIDs(dst []uint32) []uint32 {
	for _, nb := range t.heap {
		dst = append(dst, nb.ID) //lsh:allocok amortized arena regrow, capped at k
	}
	return dst
}

// sortNeighbors orders by ascending distance, breaking ties by ID.
func sortNeighbors(out []Neighbor) {
	slices.SortFunc(out, func(a, b Neighbor) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[parent].Dist >= t.heap[i].Dist {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && t.heap[l].Dist > t.heap[largest].Dist {
			largest = l
		}
		if r < n && t.heap[r].Dist > t.heap[largest].Dist {
			largest = r
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}

// OverallRatio is the paper's accuracy metric (§3.2) for one query:
//
//	(1/k) Σ_i ||o_i, q|| / ||o*_i, q||
//
// where o_i is the i-th returned neighbor and o*_i the exact i-th nearest
// neighbor. It is ≥ 1, and equals 1 for exact answers. If the method returned
// fewer than k neighbors, the missing ranks are penalized with the worst
// observed ratio among the returned ones (or a fixed penalty of 10 when
// nothing was returned), so that empty answers never look accurate.
func OverallRatio(got Result, exact Result, k int) float64 {
	if k <= 0 {
		panic("ann: OverallRatio requires k > 0")
	}
	if len(exact.Neighbors) < k {
		panic(fmt.Sprintf("ann: ground truth has %d neighbors, need %d", len(exact.Neighbors), k))
	}
	const missingPenalty = 10.0
	var sum float64
	worst := 1.0
	n := len(got.Neighbors)
	if n > k {
		n = k
	}
	for i := 0; i < n; i++ {
		ratio := 1.0
		if exact.Neighbors[i].Dist > 0 {
			ratio = got.Neighbors[i].Dist / exact.Neighbors[i].Dist
		} else if got.Neighbors[i].Dist > 0 {
			ratio = missingPenalty
		}
		if ratio < 1 {
			// Can only happen through floating point jitter on ties.
			ratio = 1
		}
		if ratio > worst {
			worst = ratio
		}
		sum += ratio
	}
	if n < k {
		pen := worst
		if n == 0 {
			pen = missingPenalty
		}
		sum += float64(k-n) * pen
	}
	return sum / float64(k)
}

// MeanRatio returns the mean OverallRatio over positionally-aligned result
// sets, the batch-level form of the paper's accuracy metric. Only the first
// min(len(got), len(exact)) pairs are scored; an empty input scores 0.
func MeanRatio(got, exact []Result, k int) float64 {
	return meanPairwise(got, exact, k, OverallRatio)
}

// MeanRecall returns the mean Recall@k over positionally-aligned result
// sets.
func MeanRecall(got, exact []Result, k int) float64 {
	return meanPairwise(got, exact, k, Recall)
}

func meanPairwise(got, exact []Result, k int, metric func(Result, Result, int) float64) float64 {
	n := len(got)
	if len(exact) < n {
		n = len(exact)
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += metric(got[i], exact[i], k)
	}
	return sum / float64(n)
}

// Recall returns |got ∩ exact-top-k| / k.
func Recall(got Result, exact Result, k int) float64 {
	if k <= 0 {
		panic("ann: Recall requires k > 0")
	}
	truth := make(map[uint32]bool, k)
	for i := 0; i < k && i < len(exact.Neighbors); i++ {
		truth[exact.Neighbors[i].ID] = true
	}
	hits := 0
	for i := 0; i < k && i < len(got.Neighbors); i++ {
		if truth[got.Neighbors[i].ID] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// BruteForce performs exact top-k search by scanning every database vector.
// It is the ground-truth oracle for every experiment.
func BruteForce(data [][]float32, query []float32, k int) Result {
	t := NewTopK(k)
	t.Scan(data, 0, query)
	return t.Result()
}

// Scan offers every data[i], as ID first+i, in order, abandoning each
// distance at the current k-th distance: BruteForce's loop. Scanning
// consecutive slices of a database one after another leaves the accumulator
// exactly as one scan of the whole would.
//
//lsh:hotpath
func (t *TopK) Scan(data [][]float32, first int, query []float32) {
	for i, v := range data {
		bound := t.Worst()
		sq, ok := vecmath.SqDistBounded(v, query, bound*bound)
		if ok || !t.Full() {
			t.Push(uint32(first+i), math.Sqrt(sq))
		}
	}
}
