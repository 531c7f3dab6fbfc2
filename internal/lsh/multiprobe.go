package lsh

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Multi-probe LSH (Lv et al., VLDB 2007) — the extension the paper's
// conclusion singles out as the natural beneficiary of the same index
// structure (§8): instead of probing only the bucket a query hashes to,
// also probe the buckets obtained by perturbing individual hash coordinates
// by ±1, in increasing order of estimated boundary distance. More probes
// per table buy recall without growing L, trading index size for I/O.
//
// This file provides the per-coordinate quantization (FloorsAt), the mixing
// of perturbed floors back into 32-bit bucket hashes (CombineFloors), and
// the classic min-heap generator of perturbation sets ordered by score.

// FloorsAt quantizes a projection buffer at radius r into the per-function
// floor values (the unmixed h_ij(o) of Eq. 1) and, for each, the fractional
// position of the point inside its bucket (0 = at the lower boundary,
// approaching 1 = at the upper). floors and fracs must have length L*M.
func (f *Family) FloorsAt(proj []float64, r float64, floors []int64, fracs []float64) {
	if len(proj) != f.NumProjections() {
		panic(fmt.Sprintf("lsh: FloorsAt projection length %d, want %d", len(proj), f.NumProjections()))
	}
	if len(floors) != f.NumProjections() || len(fracs) != f.NumProjections() {
		panic("lsh: FloorsAt output length mismatch")
	}
	if r <= 0 {
		panic("lsh: FloorsAt requires positive radius")
	}
	inv := 1 / r
	for i := range proj {
		x := (float64(proj[i]*inv) + f.b[i]) / f.W
		fl := math.Floor(x)
		floors[i] = int64(fl)
		fracs[i] = x - fl
	}
}

// CombineFloors mixes the M floor values of table l into the 32-bit
// compound hash, exactly as HashesAt does for unperturbed floors.
func (f *Family) CombineFloors(l int, floors []int64) uint32 {
	if len(floors) != f.M {
		panic(fmt.Sprintf("lsh: CombineFloors with %d floors, want %d", len(floors), f.M))
	}
	h := f.seeds[l]
	for _, fl := range floors {
		h = mix64(h, uint64(fl))
	}
	return fold32(h)
}

// Perturbation is one ±1 shift of one hash coordinate within a table.
type Perturbation struct {
	// Coord indexes the hash function within the compound hash (0..M-1).
	Coord int
	// Delta is +1 or -1.
	Delta int
	// Score is the squared distance from the query's projection to the
	// boundary crossed by this perturbation, in units of (w·R)²: the
	// likelihood proxy of Lv et al.
	Score float64
}

// PerturbationSets generates up to maxSets perturbation sets for one table,
// ordered by non-decreasing total score, given the query's in-bucket
// fractions for that table's M coordinates. A set never perturbs the same
// coordinate twice. The empty (zero-score) base set is not included.
func PerturbationSets(fracs []float64, maxSets int) [][]Perturbation {
	if maxSets <= 0 {
		return nil
	}
	m := len(fracs)
	// Candidate perturbations sorted by score: crossing the lower boundary
	// (delta -1) costs frac², the upper (delta +1) costs (1-frac)².
	cands := make([]Perturbation, 0, 2*m)
	for j, frac := range fracs {
		cands = append(cands,
			Perturbation{Coord: j, Delta: -1, Score: frac * frac},
			Perturbation{Coord: j, Delta: +1, Score: (1 - frac) * (1 - frac)},
		)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score < cands[j].Score
		}
		if cands[i].Coord != cands[j].Coord {
			return cands[i].Coord < cands[j].Coord
		}
		return cands[i].Delta < cands[j].Delta
	})

	// Min-heap over candidate index sets; the classic shift/expand scheme
	// enumerates sets in non-decreasing score order.
	h := &setHeap{}
	heap.Push(h, probeSet{idxs: []int{0}, score: cands[0].Score})
	var out [][]Perturbation
	for h.Len() > 0 && len(out) < maxSets {
		s := heap.Pop(h).(probeSet)
		last := s.idxs[len(s.idxs)-1]
		// Shift: replace the largest element with its successor.
		if last+1 < len(cands) {
			shifted := append(append([]int(nil), s.idxs[:len(s.idxs)-1]...), last+1)
			heap.Push(h, probeSet{idxs: shifted, score: s.score - cands[last].Score + cands[last+1].Score})
			// Expand: add the successor.
			expanded := append(append([]int(nil), s.idxs...), last+1)
			heap.Push(h, probeSet{idxs: expanded, score: s.score + cands[last+1].Score})
		}
		if validSet(cands, s.idxs) {
			set := make([]Perturbation, len(s.idxs))
			for i, ci := range s.idxs {
				set[i] = cands[ci]
			}
			out = append(out, set)
		}
	}
	return out
}

// validSet rejects sets perturbing one coordinate in both directions.
func validSet(cands []Perturbation, idxs []int) bool {
	seen := map[int]bool{}
	for _, ci := range idxs {
		c := cands[ci].Coord
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

type probeSet struct {
	idxs  []int
	score float64
}

type setHeap []probeSet

func (h setHeap) Len() int { return len(h) }
func (h setHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return len(h[i].idxs) < len(h[j].idxs)
}
func (h setHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *setHeap) Push(x any)   { *h = append(*h, x.(probeSet)) }
func (h *setHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}
