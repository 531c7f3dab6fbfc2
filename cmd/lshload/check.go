package main

import (
	"fmt"
	"math"

	"e2lshos"
)

// neighbor is one returned neighbor, as the wire carries it.
type neighbor struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// response is what the checker and the metrics need from one operation's
// reply, whichever path (HTTP or library call) produced it.
type response struct {
	Fail      string // "" when the operation was served; else the failure's name
	Neighbors []neighbor
	Partial   bool
	NIO       int
	ID        uint32 // insert: the assigned object ID
	ReqBytes  int
	RespBytes int
}

// distTolerance is the relative error allowed between a returned distance and
// the one recomputed from the benchmark's own copy of the vector.
const distTolerance = 1e-4

// checkNeighbors verifies one search answer against the benchmark's own copy
// of the database: at most k neighbors, ascending, distinct IDs, and every
// distance equal to the distance recomputed from vector(id) — which proves
// client and server hold the same database. It returns the name of the first
// failed check, or "".
func checkNeighbors(q []float32, got []neighbor, k int, vector func(id uint32) []float32) string {
	if len(got) > k {
		return "too-many-neighbors"
	}
	seen := make(map[uint32]struct{}, len(got))
	for i, nb := range got {
		if i > 0 && nb.Dist < got[i-1].Dist {
			return "unsorted"
		}
		if _, dup := seen[nb.ID]; dup {
			return "duplicate-id"
		}
		seen[nb.ID] = struct{}{}
		v := vector(nb.ID)
		if v == nil {
			return "unknown-id"
		}
		want := dist(q, v)
		if math.Abs(nb.Dist-want) > distTolerance*math.Max(want, 1) {
			return "wrong-distance"
		}
	}
	return ""
}

func dist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func toResult(nbs []neighbor) e2lshos.Result {
	out := e2lshos.Result{Neighbors: make([]e2lshos.Neighbor, len(nbs))}
	for i, nb := range nbs {
		out.Neighbors[i] = e2lshos.Neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	return out
}

func fromResult(r e2lshos.Result) []neighbor {
	out := make([]neighbor, len(r.Neighbors))
	for i, nb := range r.Neighbors {
		out[i] = neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	return out
}

// failures counts failed operations by the name of the check that failed.
type failures map[string]int

func (f failures) add(name string) { f[name]++ }

func (f failures) total() int {
	n := 0
	for _, c := range f {
		n += c
	}
	return n
}

func (f failures) String() string {
	if len(f) == 0 {
		return "none"
	}
	s := ""
	for _, name := range sortedKeys(f) {
		s += fmt.Sprintf("%s=%d ", name, f[name])
	}
	return s
}
