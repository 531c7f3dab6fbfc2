package main

import (
	"encoding/binary"
	"math/rand"
)

// The request generator. The seed drives query order, Zipf draws, insert
// vectors and the write schedule — never the database, which is the
// product's deterministic SIFT clone. The program under test sees only the
// generated requests.

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opDelete
)

func (k opKind) String() string { return [...]string{"search", "insert", "delete"}[k] }

// request is one generated operation. Arg is a query index for searches and
// an insert ordinal for inserts (which vector to send) and deletes (which
// earlier insert to remove).
type request struct {
	Kind opKind
	Arg  int32
}

// streamSpec describes one workload's request stream.
type streamSpec struct {
	// Queries is the number of distinct held-out queries searched.
	Queries int
	// ZipfS > 1 draws queries Zipf(s) over a seed-shuffled rank order after
	// the first full pass; 0 repeats uniformly shuffled passes.
	ZipfS float64
	// WriteShare is the share of operations that mutate, split evenly
	// between inserts and deletes of earlier inserts.
	WriteShare float64
}

// deleteLag is how many operations must separate an insert from the delete
// that targets it, so the insert's ack (and ID) exists when the delete is
// due even with both workers in flight.
const deleteLag = 50

// genStream generates n requests. Searches begin with one full pass over the
// query set in seed-shuffled order — per-query counts are averaged over that
// pass, so they do not depend on how far a timed phase got — and continue
// with further shuffled passes or Zipf draws.
func genStream(seed int64, spec streamSpec, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(spec.Queries)
	var zipf *rand.Zipf
	if spec.ZipfS > 1 {
		zipf = rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Queries-1))
	}
	out := make([]request, 0, n)
	searches := 0
	var insertAt []int // stream position of each insert, by ordinal
	nextDelete := 0    // ordinal of the oldest insert not yet targeted
	for len(out) < n {
		if spec.WriteShare > 0 {
			r := rng.Float64()
			wantDelete := r >= 1-spec.WriteShare/2
			wantInsert := !wantDelete && r >= 1-spec.WriteShare
			if wantDelete && (nextDelete >= len(insertAt) || len(out)-insertAt[nextDelete] < deleteLag) {
				wantDelete, wantInsert = false, true // nothing old enough to delete yet
			}
			if wantDelete {
				out = append(out, request{opDelete, int32(nextDelete)})
				nextDelete++
				continue
			}
			if wantInsert {
				out = append(out, request{opInsert, int32(len(insertAt))})
				insertAt = append(insertAt, len(out)-1)
				continue
			}
		}
		var q int
		switch {
		case searches < spec.Queries:
			q = order[searches]
		case zipf != nil:
			q = order[zipf.Uint64()]
		default:
			if searches%spec.Queries == 0 {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			q = order[searches%spec.Queries]
		}
		searches++
		out = append(out, request{opSearch, int32(q)})
	}
	return out
}

// encodeStream is the stream's canonical byte form, for comparing streams.
func encodeStream(reqs []request) []byte {
	b := make([]byte, 0, 5*len(reqs))
	for _, r := range reqs {
		b = append(b, byte(r.Kind))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Arg))
	}
	return b
}

// insertVector derives insert vector ord from the seed: a held-out query
// nudged by ±1 per coordinate, so it lands in populated buckets like real
// data yet is distinct from every database vector and every other insert.
func insertVector(seed int64, ord int, pool [][]float32) []float32 {
	rng := rand.New(rand.NewSource(seed ^ int64(ord+1)*0x9E3779B97F4A7C))
	base := pool[rng.Intn(len(pool))]
	v := make([]float32, len(base))
	for i, x := range base {
		v[i] = x + float32(rng.Intn(3)-1)
		if v[i] < 0 {
			v[i] = 0
		}
	}
	// Stamp the ordinal into two coordinates so no two inserts coincide.
	v[0] = float32(ord % 251)
	v[1] = float32(ord / 251 % 251)
	return v
}
